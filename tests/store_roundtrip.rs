//! HA-Store round-trip equivalence: a snapshot written with
//! [`store_bytes`]/[`write_store_file`] and re-opened (owned bytes or
//! `mmap`) must answer every select, distance, code, kNN and point-lookup query
//! **byte-identically** (same ids, same order) to the freshly frozen
//! [`FlatHaIndex`] it was written from, at every radius. The properties
//! generate arbitrary datasets — duplicate codes, duplicate ids, ragged
//! word tails, the empty index — and hold the persistent format to that
//! claim.
//!
//! A snapshot in memory keeps no pattern for the leaves past its pattern
//! bound; the writer regenerates them. So the round trip is also held on
//! every shape a planned index takes when it is persisted: a flat-routed
//! build, a deferred MIH-routed one that `store_bytes` materialises, and
//! an arena whose leaves sit on both sides of the all-leaf suffix.

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::planner::PlanConfig;
use hamming_suite::index::select::knn_by_radius;
use hamming_suite::index::testkit::{clustered_dataset, oracle_select, random_within};
use hamming_suite::index::{
    Backend, CostModel, DhaConfig, DynamicHaIndex, HammingIndex, MutableIndex, PlannedIndex,
    TupleId,
};
use hamming_suite::store::{store_bytes, FlatStoreView, HaStore};
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

/// Sorted answers of `view` at `h`.
fn sorted(view: &FlatStoreView<'_>, q: &BinaryCode, h: u32) -> Vec<TupleId> {
    let mut ids = view.search(q, h);
    ids.sort_unstable();
    ids
}

/// The file `bytes` opens, re-serializes to itself from its own full
/// planes (so the writer regenerated exactly the leaf patterns the open
/// validated), and its view agrees with `snapshot` — the answers of the
/// in-memory snapshot, sorted — and with the linear oracle over `items`
/// at `h` and `h + 1` for queries near the data. Returns the store.
fn check_file(
    what: &str,
    bytes: Vec<u8>,
    items: &[(BinaryCode, TupleId)],
    h: u32,
    snapshot: impl Fn(&BinaryCode, u32) -> Vec<TupleId>,
) -> HaStore {
    let store = HaStore::open_bytes(bytes.clone());
    let store = store.unwrap_or_else(|e| panic!("{what}: the file must open: {e:?}"));
    assert!(store_bytes(store.view().parts()) == bytes, "{what}: re-serialized bytes differ");
    let mut rng = StdRng::seed_from_u64(h as u64);
    for i in 0..12 {
        let q = random_within(&items[(i * 97) % items.len()].0, h + 1, &mut rng);
        for at in [h, h + 1] {
            let want = oracle_select(items, &q, at);
            assert_eq!(sorted(&store.view(), &q, at), want, "{what}: store view at h={at}");
            assert_eq!(snapshot(&q, at), want, "{what}: snapshot view at h={at}");
        }
    }
    store
}

/// One file per shape a persisted index takes, each opened, searched
/// against the snapshot and the oracle, and — for the planned builds —
/// compared byte for byte with the same data compiled through the arena.
#[test]
fn every_persisted_shape_round_trips_through_the_store() {
    // Flat-routed: 512-bit codes in 12 dense clusters.
    let items = clustered_dataset(4_000, 512, 12, 4, 49);
    let planned = PlannedIndex::build(512, items.clone());
    assert_eq!(planned.backend_for(40), Backend::HaFlat, "512-bit clustered routes flat");
    let mut arena = DynamicHaIndex::build(items.clone());
    let bytes = planned.store_bytes().expect("a snapshot");
    assert!(bytes == arena.write_store(), "flat-routed: the arena's bytes");
    check_file("flat-routed", bytes, &items, 40, |q, h| {
        planned.search_with_backend(Backend::HaFlat, q, h).expect("flat is available")
    });

    // MIH-routed and deferred: 64-bit near-duplicate groups (n/32
    // centres, 2 flips each), flat priced out, so `store_bytes` is what
    // first builds the snapshot.
    let items = clustered_dataset(19_200, 64, 600, 2, 50);
    let model = CostModel { flat_row_h_ns: 100.0, arena_row_h_ns: 200.0, ..CostModel::default() };
    let cfg = PlanConfig { model, ..PlanConfig::default() };
    let planned = PlannedIndex::build_with(64, items.clone(), cfg);
    assert_eq!(planned.backend_for(3), Backend::Mih, "near-duplicates route MIH");
    assert_eq!(planned.memory_bytes(), planned.mih().memory_bytes(), "the snapshot is deferred");
    let bytes = planned.store_bytes().expect("materialised");
    assert!(planned.memory_bytes() > planned.mih().memory_bytes(), "store_bytes built it");
    let mut arena = DynamicHaIndex::build(items.clone());
    assert!(bytes == arena.write_store(), "MIH-routed: the arena's bytes");
    check_file("MIH-routed", bytes, &items, 3, |q, h| {
        planned.search_with_backend(Backend::HaFlat, q, h).expect("flat is available")
    });

    // An arena whose inserts and deletes leave leaves at mixed depths, so
    // the snapshot has leaves before its all-leaf suffix as well as past it.
    let mut rng = StdRng::seed_from_u64(51);
    let mut live = clustered_dataset(1_000, 128, 4, 3, 51);
    let config = DhaConfig { insert_buffer_cap: 8, ..DhaConfig::default() };
    let mut arena = DynamicHaIndex::build_with(live.clone(), config);
    for id in 0..500 {
        if rng.gen_bool(0.33) {
            let (code, id) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(arena.delete(&code, id));
        } else {
            let mut code = live[rng.gen_range(0..live.len())].0.clone();
            code.flip(rng.gen_range(0..128));
            arena.insert(code.clone(), 10_000 + id);
            live.push((code, 10_000 + id));
        }
    }
    let flat = arena.freeze();
    let store = check_file("mixed depths", flat.store_bytes(), &live, 6, |q, h| {
        sorted(&flat.view(), q, h)
    });
    let parts = *store.view().parts();
    let leaf_before_suffix =
        (parts.root_count..parts.leaf_suffix).any(|v| parts.leaf_slot[v] != u32::MAX);
    assert!(leaf_before_suffix, "mixed depths: no leaf below a root before the suffix");
    assert!(parts.leaf_suffix < parts.leaf_slot.len(), "mixed depths: no suffix");
}
