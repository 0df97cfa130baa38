//! Gray-order range partitioning by sampled pivots (§5.1).
//!
//! > "we build the data histogram for the binary codes of the sampled
//! > data, and get a set of pivot values Pv for each partition. This
//! > guarantees that each partition receives approximately the same
//! > amount of data, where data in the various partitions is ordered
//! > according to the Gray order."
//!
//! A tuple lands in partition `m` when the Gray rank of its code falls in
//! `[Pv_m, Pv_{m+1})`. Assignment is one Gray decode plus a binary search
//! over the `N − 1` stored boundaries.

use ha_bitcode::gray::gray_rank;
use ha_bitcode::BinaryCode;

/// A range partitioner over the Gray ranks of binary codes.
#[derive(Clone, Debug)]
pub struct PivotPartitioner {
    /// `N − 1` boundary Gray ranks, ascending. Partition `m` covers ranks
    /// in `[boundaries[m-1], boundaries[m])`.
    boundaries: Vec<BinaryCode>,
}

impl PivotPartitioner {
    /// Builds a partitioner with `partitions` ranges from a sample of
    /// codes, cutting the sample's Gray-order histogram into equal-mass
    /// slices.
    ///
    /// # Panics
    /// If `partitions` is 0 or `sample` is empty while `partitions > 1`.
    pub(crate) fn from_sample(sample: &[BinaryCode], partitions: usize) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        if partitions == 1 {
            return PivotPartitioner {
                boundaries: Vec::new(),
            };
        }
        assert!(!sample.is_empty(), "cannot place pivots with an empty sample");
        let mut ranks: Vec<BinaryCode> = sample.iter().map(gray_rank).collect();
        ranks.sort_unstable();
        let n = ranks.len();
        let mut boundaries = Vec::with_capacity(partitions - 1);
        for m in 1..partitions {
            let pos = (m * n) / partitions;
            boundaries.push(ranks[pos.min(n - 1)].clone());
        }
        // Duplicate boundaries (tiny or highly concentrated samples) are
        // legal: the affected middle partitions just come out empty.
        PivotPartitioner { boundaries }
    }

    /// Number of partitions `N`.
    pub fn partitions(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Partition of `code`: binary search of its Gray rank among the
    /// pivots (the mapper-side assignment of §5.2).
    pub fn assign(&self, code: &BinaryCode) -> usize {
        let rank = gray_rank(code);
        self.boundaries.partition_point(|b| *b <= rank)
    }

    /// Serialized size of the pivot set (what the distributed cache ships
    /// to every worker).
    pub fn shuffle_bytes(&self) -> usize {
        self.boundaries
            .iter()
            .map(|b| 2 + b.len().div_ceil(8))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_core::testkit::{clustered_dataset, random_dataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn codes(n: usize, seed: u64) -> Vec<BinaryCode> {
        random_dataset(n, 32, seed).into_iter().map(|(c, _)| c).collect()
    }

    #[test]
    fn single_partition_takes_everything() {
        let p = PivotPartitioner::from_sample(&[], 1);
        assert_eq!(p.partitions(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.assign(&BinaryCode::random(32, &mut rng)), 0);
    }

    #[test]
    fn assignment_is_in_range_and_total() {
        let sample = codes(500, 2);
        for n in [2usize, 4, 8, 16] {
            let p = PivotPartitioner::from_sample(&sample, n);
            assert_eq!(p.partitions(), n);
            for c in codes(200, 3) {
                assert!(p.assign(&c) < n);
            }
        }
    }

    #[test]
    fn balanced_on_uniform_data() {
        let sample = codes(2000, 4);
        let p = PivotPartitioner::from_sample(&sample, 8);
        let mut counts = [0usize; 8];
        for c in codes(4000, 5) {
            counts[p.assign(&c)] += 1;
        }
        let mean = 4000.0 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) < 1.5 * mean && (c as f64) > 0.5 * mean,
                "partition {i} holds {c} (mean {mean})"
            );
        }
    }

    #[test]
    fn balanced_on_skewed_data() {
        // Heavily clustered codes would crush a naive equal-width split;
        // sampled pivots must still balance them (the point of §5.1).
        let data = clustered_dataset(3000, 32, 2, 1, 6);
        let all: Vec<BinaryCode> = data.into_iter().map(|(c, _)| c).collect();
        let sample: Vec<BinaryCode> = all.iter().step_by(7).cloned().collect();
        let p = PivotPartitioner::from_sample(&sample, 6);
        let mut counts = vec![0usize; 6];
        for c in &all {
            counts[p.assign(c)] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = all.len() as f64 / 6.0;
        assert!(
            max / mean < 2.0,
            "skew {} too high: {counts:?}",
            max / mean
        );
    }

    #[test]
    fn assignment_respects_gray_order() {
        // Codes sorted by Gray rank must map to a non-decreasing sequence
        // of partition ids.
        let sample = codes(300, 7);
        let p = PivotPartitioner::from_sample(&sample, 5);
        let mut data = codes(500, 8);
        data.sort_by_cached_key(gray_rank);
        let parts: Vec<usize> = data.iter().map(|c| p.assign(c)).collect();
        for w in parts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn tiny_sample_duplicate_pivots_ok() {
        let one = codes(1, 9);
        let p = PivotPartitioner::from_sample(&one, 4);
        assert_eq!(p.partitions(), 4);
        for c in codes(50, 10) {
            assert!(p.assign(&c) < 4);
        }
    }
}
