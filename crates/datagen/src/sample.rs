//! Reservoir sampling (Vitter's Algorithm R — the paper's reference \[22\]).
//!
//! The preprocessing phase (§5.1) draws a uniform random sample from R and
//! S "using reservoir sampling" to learn the hash function and the
//! partition pivots without materializing either dataset in memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a uniform sample of (at most) `k` items from a single pass over
/// `items`, deterministically from `seed`.
pub fn reservoir_sample<T: Clone>(
    items: impl IntoIterator<Item = T>,
    k: usize,
    seed: u64,
) -> Vec<T> {
    assert!(k >= 1, "sample size must be >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    for (i, item) in items.into_iter().enumerate() {
        if i < k {
            reservoir.push(item);
        } else {
            let j = rng.gen_range(0..=i);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_everything_when_k_exceeds_n() {
        let got = reservoir_sample(0..5, 10, 1);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_size_is_k() {
        assert_eq!(reservoir_sample(0..1000, 32, 2).len(), 32);
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(reservoir_sample(0..100, 10, 7), reservoir_sample(0..100, 10, 7));
        assert_ne!(reservoir_sample(0..100, 10, 7), reservoir_sample(0..100, 10, 8));
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        // χ²-style smoke test: over many runs, each of 20 items should be
        // sampled (k=5) about 25% of the time.
        let n = 20;
        let k = 5;
        let runs = 4000;
        let mut counts = vec![0u32; n];
        for seed in 0..runs {
            for x in reservoir_sample(0..n, k, seed as u64) {
                counts[x] += 1;
            }
        }
        let expected = runs as f64 * k as f64 / n as f64; // 1000
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.12, "item {i} sampled {c} times (expected ~{expected})");
        }
    }

    #[test]
    fn samples_come_from_the_stream() {
        let got = reservoir_sample(100..200, 17, 3);
        assert!(got.iter().all(|&x| (100..200).contains(&x)));
        // No duplicates (sampling without replacement).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len());
    }
}
