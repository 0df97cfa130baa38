//! HA-Store round-trip equivalence: a snapshot written with
//! [`store_bytes`]/[`write_store_file`] and re-opened (owned bytes or
//! `mmap`) must answer every select, kNN, batch and point-lookup query
//! **byte-identically** (same ids, same order) to the freshly frozen
//! [`FlatHaIndex`] it was written from, at every radius. The properties
//! generate arbitrary datasets — duplicate codes, duplicate ids, ragged
//! word tails, the empty index — and hold the persistent format to that
//! claim.

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::select::knn_by_radius;
use hamming_suite::index::{DynamicHaIndex, TupleId};
use hamming_suite::store::HaStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset with deliberate duplicate codes and shared ids.
fn dataset(seed: u64, code_len: usize, n: usize) -> Vec<(BinaryCode, TupleId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(BinaryCode, TupleId)> = Vec::with_capacity(n);
    for i in 0..n {
        let code = if i > 0 && rng.gen_bool(0.2) {
            out[rng.gen_range(0..i)].0.clone() // duplicate an earlier code
        } else {
            BinaryCode::random(code_len, &mut rng)
        };
        out.push((code, rng.gen_range(0..n.max(1)) as TupleId));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// write → open ≡ frozen index, for every query shape at every h.
    #[test]
    fn reopened_snapshot_is_byte_identical_to_frozen_index(
        seed in any::<u64>(),
        code_len in 1usize..=80,
        n in 0usize..100,
    ) {
        let data = dataset(seed, code_len, n);
        let mut dha = DynamicHaIndex::build(data.clone());
        dha.freeze();
        let flat = dha.flat().expect("frozen");
        let store = HaStore::open_bytes(flat.store_bytes()).expect("round-trip");
        let view = store.view();

        prop_assert_eq!(view.len(), flat.len());
        prop_assert_eq!(view.code_len(), code_len);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut queries: Vec<BinaryCode> =
            (0..6).map(|_| BinaryCode::random(code_len, &mut rng)).collect();
        if let Some((c, _)) = data.first() {
            queries.push(c.clone()); // exact-hit query
        }
        let max_h = code_len as u32;
        for h in [0, 1, 2, max_h / 2, max_h] {
            for q in &queries {
                prop_assert_eq!(view.search(q, h), flat.search(q, h), "select h={}", h);
                prop_assert_eq!(
                    view.search_with_distances(q, h),
                    flat.search_with_distances(q, h),
                    "distances h={}", h
                );
                prop_assert_eq!(
                    view.search_codes(q, h),
                    flat.search_codes(q, h),
                    "codes h={}", h
                );
            }
            prop_assert_eq!(
                view.batch_search(&queries, h),
                flat.batch_search(&queries, h),
                "batch h={}", h
            );
        }
        for q in &queries {
            for k in [1usize, 5, n + 1] {
                let a = knn_by_radius(k, max_h, |h| view.search_with_distances(q, h));
                let b = knn_by_radius(k, max_h, |h| flat.search_with_distances(q, h));
                prop_assert_eq!(a, b, "kNN k={}", k);
            }
        }
        for (code, _) in data.iter().take(10) {
            prop_assert_eq!(view.ids_for_code(code), flat.ids_for_code(code));
        }
        // The materialized item multiset survives the trip too.
        let mut got: Vec<_> = view.items().collect();
        let mut want: Vec<_> = dha.items().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// The file path: write to disk, re-open (`mmap` on unix), same story.
    #[test]
    fn file_round_trip_maps_and_answers(seed in any::<u64>(), n in 1usize..60) {
        let code_len = 33; // ragged tail: 33 bits → one word, 31 junk bits
        let data = dataset(seed, code_len, n);
        let mut dha = DynamicHaIndex::build(data);
        dha.freeze();
        let flat = dha.flat().expect("frozen");

        let path = std::env::temp_dir().join(format!("ha-store-rt-{seed:016x}-{n}.has"));
        let view = flat.view();
        hamming_suite::store::write_store_file(view.parts(), &path).expect("write");
        let mapped = HaStore::open_file(&path).expect("open");
        std::fs::remove_file(&path).ok();

        #[cfg(unix)]
        prop_assert!(mapped.is_mapped(), "unix open_file must mmap");
        let mut rng = StdRng::seed_from_u64(seed);
        for h in [0u32, 3, 9] {
            let q = BinaryCode::random(code_len, &mut rng);
            let mut want = flat.search(&q, h);
            want.sort_unstable();
            let mut got = mapped.view().search(&q, h);
            got.sort_unstable();
            prop_assert_eq!(got, want, "h={}", h);
        }
    }
}
