//! Hamming-select and Hamming-join (Definitions 1 & 2) over any index,
//! and kNN-select by threshold expansion (§2).
//!
//! The centralized Hamming-join of §5's opening: build an index on the
//! smaller input, probe it with every tuple of the other. The quadratic
//! nested-loop join is kept as the baseline whose cost Definition 2's
//! discussion calls out (`O(mn)` reads and distance computations).

use ha_bitcode::BinaryCode;

use crate::{HammingIndex, TupleId};

/// Hamming-select (Definition 1): ids of tuples within distance `h` of
/// `query`, sorted for deterministic output.
///
/// ```
/// use ha_bitcode::BinaryCode;
/// use ha_core::select::hamming_select;
/// use ha_core::DynamicHaIndex;
///
/// let index = DynamicHaIndex::build(
///     (0..16u64).map(|i| (BinaryCode::from_u64(i, 8), i)));
/// let hits = hamming_select(&index, &BinaryCode::from_u64(0, 8), 1);
/// assert_eq!(hits, vec![0, 1, 2, 4, 8]); // 0 and its four 1-bit flips
/// ```
pub fn hamming_select<I: HammingIndex + ?Sized>(
    index: &I,
    query: &BinaryCode,
    h: u32,
) -> Vec<TupleId> {
    let mut out = index.search(query, h);
    out.sort_unstable();
    out
}

/// Index-accelerated Hamming-join (Definition 2): all `(probe_id, index_id)`
/// pairs within distance `h`, where `index` was built over one input and
/// `probe` is the other. Pairs are sorted.
///
/// Note the symmetry remark of Definition 2 (footnote 1): h-join(R, S) =
/// h-join(S, R) up to pair orientation, so index the smaller side.
///
/// ```
/// use ha_bitcode::BinaryCode;
/// use ha_core::select::hamming_join;
/// use ha_core::DynamicHaIndex;
///
/// // Index S, probe with R (ids offset so the sides are tellable apart).
/// let s = DynamicHaIndex::build(
///     (0..8u64).map(|i| (BinaryCode::from_u64(i, 8), 100 + i)));
/// let r: Vec<(BinaryCode, u64)> =
///     vec![(BinaryCode::from_u64(0, 8), 0), (BinaryCode::from_u64(7, 8), 1)];
///
/// let pairs = hamming_join(&s, &r, 1);
/// assert_eq!(pairs, vec![
///     (0, 100), (0, 101), (0, 102), (0, 104), // r0 ↔ {0,1,2,4}
///     (1, 103), (1, 105), (1, 106), (1, 107), // r7 ↔ {3,5,6,7}
/// ]);
/// ```
pub fn hamming_join<I: HammingIndex + ?Sized>(
    index: &I,
    probe: &[(BinaryCode, TupleId)],
    h: u32,
) -> Vec<(TupleId, TupleId)> {
    let mut out = Vec::new();
    for (code, pid) in probe {
        for sid in index.search(code, h) {
            out.push((*pid, sid));
        }
    }
    out.sort_unstable();
    out
}

/// kNN-select by threshold expansion (§2): the first `k` entries, in
/// `(distance, id)` order, of the smallest probed radius holding at least
/// `k`. `within(r)` must return every `(id, distance)` with
/// `distance ≤ r`, in any order, with multiplicity. The result is shorter
/// than `k` only when fewer than `k` entries lie within `max_radius`;
/// `k = 0` returns empty without probing.
///
/// Exact, not approximate: once at least `k` hits lie within `r`, every
/// code outside `r` is farther than all of them, so the `k` closest hits
/// within `r` are the `k` closest overall.
///
/// Radii run 0, 1, 2, 3, 5, 8, 13, …, each the sum of the two before;
/// the first radius ≥ `max_radius` is probed as `max_radius`. Small
/// radii answer clustered data in one or two cheap rounds, and the
/// growth bounds the rounds for far neighbours to `O(log max_radius)`.
/// With tracing on, each call adds 1 to `core.knn.queries` and its
/// probe count to `core.knn.rounds`.
///
/// ```
/// use ha_bitcode::BinaryCode;
/// use ha_core::select::knn_by_radius;
/// use ha_core::DynamicHaIndex;
///
/// let index = DynamicHaIndex::build(
///     (0..64u64).map(|i| (BinaryCode::from_u64(i, 8), i)));
/// let q = BinaryCode::from_u64(0, 8);
/// let top3 = knn_by_radius(3, 8, |r| index.search_with_distances(&q, r));
/// assert_eq!(top3, vec![(0, 0), (1, 1), (2, 1)]);
/// ```
pub fn knn_by_radius(
    k: usize,
    max_radius: u32,
    mut within: impl FnMut(u32) -> Vec<(TupleId, u32)>,
) -> Vec<(TupleId, u32)> {
    if k == 0 {
        return Vec::new();
    }
    let (mut prev, mut r, mut rounds) = (0u32, 0u32, 0u64);
    let mut hits = loop {
        rounds += 1;
        let hits = within(r);
        if hits.len() >= k || r >= max_radius {
            break hits;
        }
        (prev, r) = (r, prev.saturating_add(r).max(r + 1).min(max_radius));
    };
    if ha_obs::is_enabled() {
        ha_obs::add_many(&[("core.knn.queries", 1), ("core.knn.rounds", rounds)]);
    }
    hits.sort_unstable_by_key(|&(id, d)| (d, id));
    hits.truncate(k);
    hits
}

/// The quadratic nested-loop join: `O(|r| · |s|)` distance computations.
pub fn nested_loop_join(
    r: &[(BinaryCode, TupleId)],
    s: &[(BinaryCode, TupleId)],
    h: u32,
) -> Vec<(TupleId, TupleId)> {
    let mut out = Vec::new();
    for (rc, rid) in r {
        for (sc, sid) in s {
            if rc.hamming_within(sc, h).is_some() {
                out.push((*rid, *sid));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Similarity-aware intersection (the paper's concluding future-work item,
/// its reference \[27\]): the tuples of `probe` that have **at least one**
/// partner within distance `h` in the indexed dataset. Unlike the join it
/// returns each qualifying probe id once, with its closest match distance.
pub fn hamming_intersect<I: HammingIndex + ?Sized>(
    index: &I,
    probe: &[(BinaryCode, TupleId)],
    h: u32,
) -> Vec<(TupleId, u32)> {
    let mut out = Vec::new();
    for (code, pid) in probe {
        // The index gives the candidate set; one pass finds the min
        // distance (the searches are already threshold-pruned).
        let hits = index.search(code, h);
        if hits.is_empty() {
            continue;
        }
        // Exact closest distance needs the partner codes, which the index
        // abstracts away; re-probing with shrinking h costs O(log h)
        // searches and keeps this operator index-agnostic.
        let mut lo = 0u32;
        let mut hi = h;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if index.search(code, mid).is_empty() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        out.push((*pid, lo));
    }
    out.sort_unstable();
    out
}

/// Self-join: all unordered pairs `(i, j)`, `i < j`, within distance `h`
/// (the Self-Hamming-join workload of §6.2).
pub fn self_join<I: HammingIndex + ?Sized>(
    index: &I,
    data: &[(BinaryCode, TupleId)],
    h: u32,
) -> Vec<(TupleId, TupleId)> {
    let mut out = Vec::new();
    for (code, pid) in data {
        for sid in index.search(code, h) {
            if *pid < sid {
                out.push((*pid, sid));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{oracle_join, paper_table_r, paper_table_s, random_dataset};
    use crate::{
        DynamicHaIndex, LinearScanIndex, RadixTreeIndex, SegmentIndex, SegmentScheme, StaticHaIndex,
    };

    #[test]
    fn paper_example_1_join() {
        // h-join(R, S) at h = 3 from Example 1.
        let r = paper_table_r();
        let s = paper_table_s();
        let idx = DynamicHaIndex::build(s.clone());
        let got = hamming_join(&idx, &r, 3);
        let want = vec![
            (0, 0), (0, 3), (0, 4), (0, 6),
            (1, 0), (1, 3), (1, 4), (1, 6),
            (2, 3),
        ];
        assert_eq!(got, want);
        assert_eq!(nested_loop_join(&r, &s, 3), want);
    }

    #[test]
    fn join_is_symmetric() {
        let r = random_dataset(40, 24, 1);
        let s = random_dataset(60, 24, 2);
        let via_s = hamming_join(&DynamicHaIndex::build(s.clone()), &r, 4);
        let via_r: Vec<(TupleId, TupleId)> = {
            let mut v: Vec<_> = hamming_join(&DynamicHaIndex::build(r.clone()), &s, 4)
                .into_iter()
                .map(|(a, b)| (b, a))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(via_s, via_r);
    }

    #[test]
    fn all_indexes_produce_identical_joins() {
        let r = random_dataset(30, 32, 3);
        let s = random_dataset(80, 32, 4);
        let want = oracle_join(&r, &s, 3);
        assert_eq!(hamming_join(&LinearScanIndex::build(s.clone()), &r, 3), want);
        assert_eq!(hamming_join(&RadixTreeIndex::build(s.clone()), &r, 3), want);
        assert_eq!(hamming_join(&StaticHaIndex::build(s.clone()), &r, 3), want);
        assert_eq!(hamming_join(&DynamicHaIndex::build(s.clone()), &r, 3), want);
        for (scheme, t) in [
            (SegmentScheme::Manku, 4),
            (SegmentScheme::HEngine, 2),
            (SegmentScheme::HmSearch, 2),
        ] {
            let idx = SegmentIndex::build(scheme, 32, t, s.clone());
            assert_eq!(hamming_join(&idx, &r, 3), want, "{scheme:?}");
        }
    }

    #[test]
    fn self_join_excludes_self_and_mirrors() {
        let data = random_dataset(50, 16, 5);
        let idx = DynamicHaIndex::build(data.clone());
        let pairs = self_join(&idx, &data, 3);
        for (a, b) in &pairs {
            assert!(a < b, "({a},{b}) must be ordered");
        }
        // Against the oracle restricted to i < j.
        let want: Vec<(TupleId, TupleId)> = oracle_join(&data, &data, 3)
            .into_iter()
            .filter(|(a, b)| a < b)
            .collect();
        assert_eq!(pairs, want);
    }

    #[test]
    fn intersect_reports_each_probe_once_with_min_distance() {
        let s = paper_table_s();
        let r = paper_table_r();
        let idx = DynamicHaIndex::build(s.clone());
        let got = hamming_intersect(&idx, &r, 3);
        // Oracle: min distance per probe, filtered by <= 3.
        let want: Vec<(TupleId, u32)> = r
            .iter()
            .filter_map(|(rc, rid)| {
                let min = s.iter().map(|(sc, _)| rc.hamming(sc)).min().unwrap();
                (min <= 3).then_some((*rid, min))
            })
            .collect();
        assert_eq!(got, want);
        // r0 matches t6 exactly? r0 = 101100010 vs t6 = 101101010 → d = 2?
        // The oracle above is authoritative; just check shape.
        for (_, d) in &got {
            assert!(*d <= 3);
        }
    }

    #[test]
    fn intersect_empty_when_nothing_close() {
        let s = paper_table_s();
        let idx = DynamicHaIndex::build(s);
        let far: Vec<(BinaryCode, TupleId)> =
            vec![("010110101".parse().unwrap(), 9)];
        // Oracle check first: is anything within 1 of this probe?
        assert!(hamming_intersect(&idx, &far, 0).is_empty());
    }

    #[test]
    fn intersect_min_distance_binary_search_exact() {
        let data = random_dataset(200, 32, 91);
        let idx = DynamicHaIndex::build(data.clone());
        let probes = random_dataset(20, 32, 92);
        for h in [4u32, 8, 16] {
            let got = hamming_intersect(&idx, &probes, h);
            for (pid, d) in got {
                let (pc, _) = &probes[pid as usize];
                let true_min = data.iter().map(|(c, _)| c.hamming(pc)).min().unwrap();
                assert_eq!(d, true_min, "probe {pid}");
                assert!(true_min <= h);
            }
        }
    }

    /// Linear top-k in `(distance, id)` order: the kNN oracle.
    fn oracle_knn(data: &[(BinaryCode, TupleId)], q: &BinaryCode, k: usize) -> Vec<(TupleId, u32)> {
        let mut all: Vec<(TupleId, u32)> = data.iter().map(|(c, id)| (*id, c.hamming(q))).collect();
        all.sort_unstable_by_key(|&(id, d)| (d, id));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_by_radius_matches_linear_top_k_over_every_index() {
        use crate::planner::PlannedIndex;
        use crate::testkit::random_at_distance;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(7);
        let mut data = random_dataset(150, 64, 41);
        let q = data[0].0.clone();
        // Ties straddling the k-th distance: copies of `q` and a ring at
        // distance 3, under ids interleaved with the existing ones.
        for id in [900, 3, 901] {
            data.push((q.clone(), id));
        }
        for id in 910..920 {
            data.push((random_at_distance(&q, 3, &mut rng), id));
        }
        // Duplicate codes under new ids, duplicate ids under new codes,
        // and one exact duplicate pair.
        data.push((data[10].0.clone(), 950));
        data.push((data[20].0.clone(), 951));
        data.push((random_at_distance(&q, 5, &mut rng), 7));
        data.push(data[30].clone());

        let dha = DynamicHaIndex::build(data.clone());
        let planned = PlannedIndex::build(64, data.clone());
        let lin = LinearScanIndex::build(data.clone());
        let n = data.len();
        let queries = [q.clone(), data[40].0.clone(), data[0].0.not()];
        for q in &queries {
            for k in [0, 1, 2, 4, 9, n, n + 5] {
                let want = oracle_knn(&data, q, k);
                let via_dha = knn_by_radius(k, 64, |r| dha.search_with_distances(q, r));
                let via_mih = knn_by_radius(k, 64, |r| planned.mih().search_with_distances(q, r));
                let via_plan = knn_by_radius(k, 64, |r| planned.search_with_distances(q, r));
                let via_lin = knn_by_radius(k, 64, |r| {
                    let hit = |(c, id): &(BinaryCode, TupleId)| Some((*id, c.hamming_within(q, r)?));
                    lin.iter().filter_map(hit).collect()
                });
                assert_eq!(via_dha, want, "DHA k={k}");
                assert_eq!(via_mih, want, "MIH k={k}");
                assert_eq!(via_plan, want, "planned k={k}");
                assert_eq!(via_lin, want, "linear k={k}");
            }
        }
    }

    #[test]
    fn knn_by_radius_probes_the_pinned_schedule() {
        let radii = |k: usize, max_radius: u32, hit_at_zero: bool| {
            let mut seen = Vec::new();
            knn_by_radius(k, max_radius, |r| {
                seen.push(r);
                if hit_at_zero { vec![(1, 0)] } else { Vec::new() }
            });
            seen
        };
        assert_eq!(radii(5, 64, false), [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64]);
        assert_eq!(radii(5, 3, false), [0, 1, 2, 3]);
        assert_eq!(radii(1, 64, true), [0], "radius 0 already holds k");
        assert_eq!(radii(0, 64, true), [] as [u32; 0], "k = 0 probes nothing");
    }

    #[test]
    fn hamming_select_sorted_output() {
        let s = paper_table_s();
        let idx = DynamicHaIndex::build(s);
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_eq!(hamming_select(&idx, &q, 3), vec![0, 3, 4, 6]);
    }
}
