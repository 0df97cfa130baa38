//! Phase 1 — preprocessing (§5.1, Figure 5 left):
//! sample → learn hash → select pivots.

use std::sync::Arc;
use std::time::Instant;

use ha_bitcode::BinaryCode;
use ha_datagen::reservoir_sample;
use ha_hashing::{SimilarityHasher, SpectralHasher};

use crate::pivot::PivotPartitioner;
use crate::VecTuple;

/// Everything the later phases need, produced from the sample alone.
pub struct Preprocessed {
    /// The learned similarity hash function `H` (shipped to every mapper
    /// via the distributed cache).
    pub hasher: Arc<SpectralHasher>,
    /// The Gray-order range partitioner built from the sampled codes.
    pub partitioner: PivotPartitioner,
    /// Number of sampled tuples.
    pub sample_size: usize,
    /// Wall-clock spent sampling + learning + pivot selection (the
    /// "preprocessing" series of Figure 10a).
    pub hash_learn_time: std::time::Duration,
    pub sampling_time: std::time::Duration,
}

/// Runs the preprocessing phase.
///
/// * `sample_rate` — fraction of R ∪ S drawn by reservoir sampling
///   (Figure 10 sweeps 0.05–0.30);
/// * `code_len` — length `L` of the learned binary codes;
/// * `partitions` — the number of reducers `N` to place pivots for.
pub fn preprocess(
    r: &[VecTuple],
    s: &[VecTuple],
    sample_rate: f64,
    code_len: usize,
    partitions: usize,
    seed: u64,
) -> Preprocessed {
    assert!(
        (0.0..=1.0).contains(&sample_rate) && sample_rate > 0.0,
        "sample rate must be in (0, 1]"
    );
    assert!(!r.is_empty() || !s.is_empty(), "both inputs empty");

    let t0 = Instant::now();
    let total = r.len() + s.len();
    let k = ((total as f64 * sample_rate).ceil() as usize).clamp(2, total);
    let sample: Vec<&Vec<f64>> =
        reservoir_sample(r.iter().chain(s.iter()).map(|(v, _)| v), k, seed);
    let sampling_time = t0.elapsed();

    let t1 = Instant::now();
    let hasher = SpectralHasher::fit_vectors(&sample, code_len, code_len);
    let sample_codes: Vec<BinaryCode> = sample.iter().map(|v| hasher.hash(v)).collect();
    let partitioner = PivotPartitioner::from_sample(&sample_codes, partitions);
    let hash_learn_time = t1.elapsed();

    Preprocessed {
        hasher: Arc::new(hasher),
        partitioner,
        sample_size: sample.len(),
        hash_learn_time,
        sampling_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_datagen::{generate, DatasetProfile};

    fn dataset(n: usize, seed: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(12, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u64))
            .collect()
    }

    #[test]
    fn produces_working_hasher_and_partitioner() {
        let r = dataset(300, 1);
        let s = dataset(300, 2);
        let pre = preprocess(&r, &s, 0.1, 32, 4, 7);
        assert_eq!(pre.partitioner.partitions(), 4);
        assert!(pre.sample_size >= 60 - 1);
        let code = pre.hasher.hash(&r[0].0);
        assert_eq!(code.len(), 32);
        assert!(pre.partitioner.assign(&code) < 4);
    }

    #[test]
    fn sample_rate_controls_sample_size() {
        let r = dataset(500, 3);
        let s = dataset(500, 4);
        let small = preprocess(&r, &s, 0.05, 32, 4, 7).sample_size;
        let large = preprocess(&r, &s, 0.30, 32, 4, 7).sample_size;
        assert_eq!(small, 50);
        assert_eq!(large, 300);
    }

    #[test]
    fn partitions_balanced_on_real_assignment() {
        let r = dataset(1000, 5);
        let s = dataset(1000, 6);
        let pre = preprocess(&r, &s, 0.2, 32, 8, 9);
        let mut counts = vec![0usize; 8];
        for (v, _) in r.iter().chain(s.iter()) {
            counts[pre.partitioner.assign(&pre.hasher.hash(v))] += 1;
        }
        let mean = 2000.0 / 8.0;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / mean < 2.2, "load skew {}: {counts:?}", max / mean);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_rate_rejected() {
        let r = dataset(10, 7);
        preprocess(&r, &r.clone(), 0.0, 32, 2, 1);
    }
}
