//! Approximate kNN-select / kNN-join via threshold-expanding
//! Hamming-select (§2).
//!
//! > "all the binary codes of the dataset are scanned to find data tuples
//! > that are different from the query's binary code by at most h bit
//! > positions. If the answer set size is more than k, then only the
//! > k-closest answers are retained. However, if the size of the result
//! > set is less than k, then a larger distance threshold is estimated and
//! > the near neighbor query is repeated."
//!
//! The scan is replaced by any [`HammingIndex`], and the expansion is
//! [`knn_by_radius`]'s radius schedule (0, 1, 2, 3, 5, 8, …); the
//! HA-Index makes the repeated probes cheap because unsuccessful
//! small-`h` rounds terminate high up in the tree.

use ha_bitcode::BinaryCode;
use ha_core::select::knn_by_radius;
use ha_core::{HammingIndex, TupleId};

/// Approximate kNN-select: the `k` indexed tuples with the smallest
/// Hamming distance to `query` (distance-then-id order). `resolve` maps a
/// tuple id back to its code for ranking.
///
/// The result is exact *in Hamming space* (the expansion only stops once
/// `k` answers are in hand or the threshold reaches
/// [`HammingIndex::complete_up_to`], capped at the code length);
/// approximation relative to the original feature space comes solely
/// from the hash.
///
/// ```
/// use ha_bitcode::BinaryCode;
/// use ha_core::DynamicHaIndex;
/// use ha_knn::knn_select;
///
/// let index = DynamicHaIndex::build(
///     (0..64u64).map(|i| (BinaryCode::from_u64(i, 8), i)));
/// let query = BinaryCode::from_u64(0, 8);
/// let top3 = knn_select(&index, |id| BinaryCode::from_u64(id, 8), &query, 3);
///
/// // Distance-then-id order: the exact match first, then 1-bit flips.
/// assert_eq!(top3, vec![(0, 0), (1, 1), (2, 1)]);
/// ```
pub fn knn_select<I: HammingIndex + ?Sized>(
    index: &I,
    resolve: impl Fn(TupleId) -> BinaryCode,
    query: &BinaryCode,
    k: usize,
) -> Vec<(TupleId, u32)> {
    let len = index.code_len() as u32;
    let cap = index.complete_up_to().unwrap_or(len).min(len);
    knn_by_radius(k, cap, |h| {
        index.search(query, h).into_iter().map(|id| (id, resolve(id).hamming(query))).collect()
    })
}

/// Approximate kNN-join: for every tuple of `r`, its `k` nearest
/// neighbours in the indexed dataset.
pub fn knn_join<I: HammingIndex + ?Sized>(
    index: &I,
    resolve: impl Fn(TupleId) -> BinaryCode + Copy,
    r: &[(BinaryCode, TupleId)],
    k: usize,
) -> Vec<(TupleId, Vec<(TupleId, u32)>)> {
    r.iter()
        .map(|(code, rid)| (*rid, knn_select(index, resolve, code, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_core::testkit::{clustered_dataset, random_dataset};
    use ha_core::{DynamicHaIndex, LinearScanIndex, StaticHaIndex};
    use std::collections::HashMap;

    fn resolver(data: &[(BinaryCode, TupleId)]) -> impl Fn(TupleId) -> BinaryCode + Copy + '_ {
        move |id| {
            data.iter()
                .find(|(_, i)| *i == id)
                .map(|(c, _)| c.clone())
                .expect("unknown id")
        }
    }

    /// Exact Hamming kNN by scan, for comparison.
    fn oracle_knn(
        data: &[(BinaryCode, TupleId)],
        q: &BinaryCode,
        k: usize,
    ) -> Vec<(TupleId, u32)> {
        let mut all: Vec<(TupleId, u32)> =
            data.iter().map(|(c, id)| (*id, c.hamming(q))).collect();
        all.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_select_matches_hamming_oracle() {
        let data = random_dataset(300, 32, 101);
        let idx = DynamicHaIndex::build(data.clone());
        let q = data[7].0.clone();
        for k in [1usize, 5, 20, 50] {
            let got = knn_select(&idx, resolver(&data), &q, k);
            assert_eq!(got, oracle_knn(&data, &q, k), "k={k}");
        }
    }

    #[test]
    fn expansion_reaches_far_neighbours() {
        // A query maximally far from everything forces many expansion
        // rounds; the loop must still terminate with exactly k answers.
        let data = clustered_dataset(100, 32, 1, 1, 103);
        let idx = DynamicHaIndex::build(data.clone());
        let q = data[0].0.not();
        let got = knn_select(&idx, resolver(&data), &q, 5);
        assert_eq!(got.len(), 5);
        assert_eq!(got, oracle_knn(&data, &q, 5));
    }

    #[test]
    fn different_indexes_agree() {
        let data = random_dataset(200, 32, 105);
        let q = data[50].0.clone();
        let dha = DynamicHaIndex::build(data.clone());
        let sha = StaticHaIndex::build(data.clone());
        let lin = LinearScanIndex::build(data.clone());
        let k = 10;
        let a = knn_select(&dha, resolver(&data), &q, k);
        let b = knn_select(&sha, resolver(&data), &q, k);
        let c = knn_select(&lin, resolver(&data), &q, k);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn knn_join_per_probe_results() {
        let s = random_dataset(150, 24, 107);
        let r = random_dataset(10, 24, 108);
        let idx = DynamicHaIndex::build(s.clone());
        let joined = knn_join(&idx, resolver(&s), &r, 3);
        assert_eq!(joined.len(), 10);
        let by_id: HashMap<TupleId, &Vec<(TupleId, u32)>> =
            joined.iter().map(|(id, v)| (*id, v)).collect();
        for (code, rid) in &r {
            assert_eq!(by_id[rid], &oracle_knn(&s, code, 3));
        }
    }

    #[test]
    fn expansion_caps_at_completeness_guarantee() {
        // An MH index is only complete up to T-1; the expansion loop must
        // stop there instead of spinning to the code length and must
        // return the (possibly short) honest result.
        use ha_core::MultiHashTable;
        let data = clustered_dataset(50, 32, 1, 1, 111); // one tight cluster
        let idx = MultiHashTable::build(data.clone(), 4); // complete to 3
        let far = data[0].0.not(); // ~31 bits away from everything
        let got = knn_select(&idx, resolver(&data), &far, 5);
        // Nothing lies within h = 3 of the inverted code, and the loop may
        // not go past the guarantee: empty result, no hang.
        assert!(got.is_empty());
    }

    #[test]
    fn k_exceeding_dataset_returns_whole_dataset() {
        let data = random_dataset(8, 16, 109);
        let idx = DynamicHaIndex::build(data.clone());
        let got = knn_select(&idx, resolver(&data), &data[0].0, 20);
        assert_eq!(got.len(), 8);
    }
}
