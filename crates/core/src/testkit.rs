//! Test and benchmark utilities: reference datasets and the linear-scan
//! oracle that every index implementation is validated against.
//!
//! Public (not `cfg(test)`) because the integration tests, property tests,
//! examples and the bench harness all use the same helpers.

use ha_bitcode::BinaryCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::TupleId;

/// The paper's running example, Table 2a (dataset S).
pub fn paper_table_s() -> Vec<(BinaryCode, TupleId)> {
    [
        "001001010", "001011101", "011001100", "101001010", "101110110",
        "101011101", "101101010", "111001100",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| (s.parse().unwrap(), i as TupleId))
    .collect()
}

/// The paper's running example, Table 2b (dataset R).
pub fn paper_table_r() -> Vec<(BinaryCode, TupleId)> {
    ["101100010", "101010010", "110000010"]
        .iter()
        .enumerate()
        .map(|(i, s)| (s.parse().unwrap(), i as TupleId))
        .collect()
}

/// `n` uniformly random codes of `code_len` bits with ids `0..n`.
pub fn random_dataset(n: usize, code_len: usize, seed: u64) -> Vec<(BinaryCode, TupleId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (BinaryCode::random(code_len, &mut rng), i as TupleId))
        .collect()
}

/// Clustered codes: `clusters` random centres, each point is a centre with
/// `flip_bits` random bits flipped. This mimics hashed real data, where
/// codes concentrate near cluster representatives — the regime the
/// HA-Index's pattern sharing exploits.
pub fn clustered_dataset(
    n: usize,
    code_len: usize,
    clusters: usize,
    flip_bits: usize,
    seed: u64,
) -> Vec<(BinaryCode, TupleId)> {
    assert!(clusters >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<BinaryCode> = (0..clusters)
        .map(|_| BinaryCode::random(code_len, &mut rng))
        .collect();
    (0..n)
        .map(|i| {
            let mut c = centres[rng.gen_range(0..clusters)].clone();
            for _ in 0..flip_bits {
                c.flip(rng.gen_range(0..code_len));
            }
            (c, i as TupleId)
        })
        .collect()
}

/// A code at **exactly** Hamming distance `dist` from `code`: `dist`
/// distinct bit positions (a partial Fisher–Yates draw) flipped. With
/// [`random_within`] and [`random_outside`] this lets a suite probe a
/// threshold at `h` and `h + 1` on purpose instead of hoping random
/// queries land on the boundary.
///
/// # Panics
/// If `dist` exceeds the code length.
pub fn random_at_distance<R: Rng + ?Sized>(code: &BinaryCode, dist: u32, rng: &mut R) -> BinaryCode {
    let bits = code.len();
    let dist = dist as usize;
    assert!(dist <= bits, "distance {dist} exceeds the {bits}-bit code");
    let mut positions: Vec<usize> = (0..bits).collect();
    let mut out = code.clone();
    for i in 0..dist {
        positions.swap(i, rng.gen_range(i..bits));
        out.flip(positions[i]);
    }
    out
}

/// A code at a uniformly drawn distance in `0..=within` from `code`.
pub fn random_within<R: Rng + ?Sized>(code: &BinaryCode, within: u32, rng: &mut R) -> BinaryCode {
    let dist = rng.gen_range(0..=within);
    random_at_distance(code, dist, rng)
}

/// A code at a uniformly drawn distance in `within + 1..=code.len()`.
///
/// # Panics
/// If `within` is not below the code length (nothing lies outside).
pub fn random_outside<R: Rng + ?Sized>(code: &BinaryCode, within: u32, rng: &mut R) -> BinaryCode {
    let dist = rng.gen_range(within + 1..=code.len() as u32);
    random_at_distance(code, dist, rng)
}

/// The ground-truth Hamming-select: ids of codes within distance `h` of
/// `query`, sorted. Every index's `search` must equal this (within its
/// completeness guarantee).
pub fn oracle_select(
    data: &[(BinaryCode, TupleId)],
    query: &BinaryCode,
    h: u32,
) -> Vec<TupleId> {
    let mut out: Vec<TupleId> = data
        .iter()
        .filter(|(c, _)| c.hamming(query) <= h)
        .map(|&(_, id)| id)
        .collect();
    out.sort_unstable();
    out
}

/// Asserts that `got` (any order, possibly with duplicates removed by the
/// caller) equals the oracle set; panics with a readable diff otherwise.
pub fn assert_matches_oracle(
    mut got: Vec<TupleId>,
    data: &[(BinaryCode, TupleId)],
    query: &BinaryCode,
    h: u32,
    context: &str,
) {
    got.sort_unstable();
    got.dedup();
    let want = oracle_select(data, query, h);
    assert_eq!(
        got, want,
        "{context}: select(q={query}, h={h}) mismatch"
    );
}

/// The ground-truth Hamming-join: all `(r_id, s_id)` pairs within distance
/// `h`, sorted.
#[cfg(test)]
pub(crate) fn oracle_join(
    r: &[(BinaryCode, TupleId)],
    s: &[(BinaryCode, TupleId)],
    h: u32,
) -> Vec<(TupleId, TupleId)> {
    let mut out = Vec::new();
    for (rc, rid) in r {
        for (sc, sid) in s {
            if rc.hamming(sc) <= h {
                out.push((*rid, *sid));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_select_matches_paper_example() {
        let s = paper_table_s();
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_eq!(oracle_select(&s, &q, 3), vec![0, 3, 4, 6]);
    }

    #[test]
    fn oracle_join_matches_paper_example() {
        // Example 1: join of Tables 2b and 2a at h = 3.
        let r = paper_table_r();
        let s = paper_table_s();
        let want: Vec<(TupleId, TupleId)> = vec![
            (0, 0), (0, 3), (0, 4), (0, 6),
            (1, 0), (1, 3), (1, 4), (1, 6),
            (2, 3),
        ];
        assert_eq!(oracle_join(&r, &s, 3), want);
    }

    #[test]
    fn clustered_dataset_is_clustered() {
        let data = clustered_dataset(200, 64, 4, 3, 1);
        assert_eq!(data.len(), 200);
        // Mean pairwise distance must sit well below the 32 expected for
        // uniform random codes.
        let mut sum = 0u64;
        let mut cnt = 0u64;
        for i in (0..200).step_by(5) {
            for j in (i + 1..200).step_by(7) {
                sum += u64::from(data[i].0.hamming(&data[j].0));
                cnt += 1;
            }
        }
        let mean = sum as f64 / cnt as f64;
        assert!(mean < 30.0, "mean pairwise distance {mean}");
    }

    #[test]
    fn distance_generators_hit_their_targets() {
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [9usize, 64, 130, 512] {
            let code = BinaryCode::random(bits, &mut rng);
            for dist in [0u32, 1, 7, bits as u32] {
                let dist = dist.min(bits as u32);
                assert_eq!(random_at_distance(&code, dist, &mut rng).hamming(&code), dist);
            }
            for _ in 0..20 {
                assert!(random_within(&code, 3, &mut rng).hamming(&code) <= 3);
                assert!(random_outside(&code, 3, &mut rng).hamming(&code) > 3);
            }
        }
    }

    #[test]
    fn random_dataset_deterministic_by_seed() {
        assert_eq!(random_dataset(10, 32, 5), random_dataset(10, 32, 5));
        assert_ne!(random_dataset(10, 32, 5), random_dataset(10, 32, 6));
    }
}
