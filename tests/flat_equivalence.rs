//! The frozen CSR/SoA snapshot must be invisible: for ANY interleaving of
//! H-Build, H-Insert and H-Delete, a frozen [`FlatHaIndex`] answers every
//! select, batch, kNN and trace query **byte-identically** (same ids, same
//! order) to the mutable arena's BFS, and both agree with the linear-scan
//! oracle at every radius. These properties generate arbitrary mutation
//! histories and hold the snapshot to that claim, including the
//! epoch-invalidation path (mutate after freeze → stale snapshot must be
//! bypassed, refreeze must revalidate).

use hamming_suite::bitcode::{BinaryCode, Kernel};
use hamming_suite::index::select::knn_by_radius;
use hamming_suite::index::testkit::assert_matches_oracle;
use hamming_suite::index::{
    DhaConfig, DynamicHaIndex, FreezePolicy, HammingIndex, MutableIndex, TupleId,
};
use hamming_suite::store::HaStore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two views of the same logical index: one answering from the frozen
/// flat snapshot, one forced onto the mutable arena's BFS.
fn views(idx: &DynamicHaIndex) -> (DynamicHaIndex, DynamicHaIndex) {
    let mut frozen = idx.clone();
    frozen.freeze();
    assert!(frozen.flat_is_current(), "freeze must install a current snapshot");
    let mut thawed = idx.clone();
    thawed.thaw();
    assert!(!thawed.flat_is_current(), "thaw must drop the snapshot");
    (frozen, thawed)
}

/// Replays `ops` mutation steps (biased 2:1 insert:delete) on `idx`,
/// mirroring them into `live` so the oracle stays in sync.
fn churn(
    idx: &mut DynamicHaIndex,
    live: &mut Vec<(BinaryCode, TupleId)>,
    ops: usize,
    code_len: usize,
    rng: &mut StdRng,
    next_id: &mut TupleId,
) {
    for _ in 0..ops {
        if rng.gen_bool(0.33) && !live.is_empty() {
            let pos = rng.gen_range(0..live.len());
            let (code, id) = live.swap_remove(pos);
            assert!(idx.delete(&code, id), "delete of a live tuple must succeed");
        } else {
            // Half the inserts are near-duplicates of live codes so the
            // tree grows deep residual paths, not just wide roots.
            let code = if !live.is_empty() && rng.gen_bool(0.5) {
                let mut c = live[rng.gen_range(0..live.len())].0.clone();
                c.flip(rng.gen_range(0..code_len));
                c
            } else {
                BinaryCode::random(code_len, rng)
            };
            idx.insert(code.clone(), *next_id);
            live.push((code, *next_id));
            *next_id += 1;
        }
    }
}

/// Every radius 0..=max_h: frozen ≡ thawed byte-for-byte across all four
/// query surfaces, and both match the oracle.
fn assert_views_agree(
    frozen: &DynamicHaIndex,
    thawed: &DynamicHaIndex,
    live: &[(BinaryCode, TupleId)],
    queries: &[BinaryCode],
    max_h: u32,
    ctx: &str,
) {
    for q in queries {
        for h in 0..=max_h {
            let f = frozen.search(q, h);
            let t = thawed.search(q, h);
            assert_eq!(f, t, "{ctx}: select h={h} must be byte-identical");
            assert_matches_oracle(f, live, q, h, &format!("{ctx} flat h={h}"));
            assert_eq!(
                frozen.search_with_distances(q, h),
                thawed.search_with_distances(q, h),
                "{ctx}: distances h={h}"
            );
            assert_eq!(
                frozen.search_codes(q, h),
                thawed.search_codes(q, h),
                "{ctx}: codes h={h}"
            );
            assert_eq!(
                frozen.search_trace(q, h),
                thawed.search_trace(q, h),
                "{ctx}: trace h={h}"
            );
        }
    }
    let max_h = max_h.max(1);
    assert_eq!(
        frozen.batch_search(queries, max_h),
        thawed.batch_search(queries, max_h),
        "{ctx}: batch"
    );
    for (i, q) in queries.iter().enumerate() {
        let bits = q.len() as u32;
        for k in [1usize, 3, 16] {
            assert_eq!(
                knn_by_radius(k, bits, |h| frozen.search_with_distances(q, h)),
                knn_by_radius(k, bits, |h| thawed.search_with_distances(q, h)),
                "{ctx}: kNN q={i} k={k}"
            );
        }
    }
}

fn dataset(rng: &mut StdRng, n: usize, code_len: usize) -> Vec<(BinaryCode, TupleId)> {
    // A few cluster centers plus noise — mirrors the clustered profile
    // the flat layout is optimised for, with plenty of shared prefixes.
    let centers: Vec<BinaryCode> =
        (0..4).map(|_| BinaryCode::random(code_len, rng)).collect();
    (0..n as TupleId)
        .map(|id| {
            let code = if rng.gen_bool(0.7) {
                let mut c = centers[rng.gen_range(0..centers.len())].clone();
                for _ in 0..rng.gen_range(0..4) {
                    c.flip(rng.gen_range(0..code_len));
                }
                c
            } else {
                BinaryCode::random(code_len, rng)
            };
            (code, id)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary build → churn histories: after every burst of mutations
    /// the refrozen snapshot answers exactly like the arena and the oracle.
    #[test]
    fn frozen_equals_arena_under_arbitrary_histories(
        seed in any::<u64>(),
        initial in 0usize..120,
        bursts in 1usize..4,
        ops_per_burst in 1usize..40,
        wide in any::<bool>(),
    ) {
        let code_len = if wide { 96 } else { 24 };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = dataset(&mut rng, initial, code_len);
        let mut idx = DynamicHaIndex::build_with(
            live.clone(),
            DhaConfig { insert_buffer_cap: 8, ..DhaConfig::default() },
        );
        let mut next_id: TupleId = 100_000;
        for burst in 0..bursts {
            churn(&mut idx, &mut live, ops_per_burst, code_len, &mut rng, &mut next_id);
            idx.freeze();
            idx.check_invariants();
            let (frozen, thawed) = views(&idx);
            let queries: Vec<BinaryCode> = (0..3)
                .map(|_| {
                    if !live.is_empty() && rng.gen_bool(0.6) {
                        let mut q = live[rng.gen_range(0..live.len())].0.clone();
                        q.flip(rng.gen_range(0..code_len));
                        q
                    } else {
                        BinaryCode::random(code_len, &mut rng)
                    }
                })
                .collect();
            assert_views_agree(
                &frozen, &thawed, &live, &queries, 6,
                &format!("seed={seed} burst={burst}"),
            );
        }
    }

    /// Epoch invalidation: a mutation after freeze must take the snapshot
    /// out of service (answers still exact, via the arena), and refreezing
    /// must bring a *current* snapshot back with identical answers.
    #[test]
    fn mutations_invalidate_snapshot_and_refreeze_revalidates(
        seed in any::<u64>(),
        n in 1usize..80,
        ops in 1usize..20,
    ) {
        let code_len = 32;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = dataset(&mut rng, n, code_len);
        let mut idx = DynamicHaIndex::build_with(
            live.clone(),
            DhaConfig { insert_buffer_cap: 4, ..DhaConfig::default() },
        );
        idx.freeze();
        prop_assert!(idx.flat_is_current());
        let stale_epoch = idx.flat().map(|f| f.epoch());

        let mut next_id: TupleId = 200_000;
        churn(&mut idx, &mut live, ops, code_len, &mut rng, &mut next_id);
        prop_assert!(
            !idx.flat_is_current(),
            "any mutation must invalidate the snapshot"
        );

        // Stale window: dispatch must fall back to the arena and stay exact.
        let q = BinaryCode::random(code_len, &mut rng);
        for h in [0u32, 2, 5] {
            assert_matches_oracle(idx.search(&q, h), &live, &q, h, "stale window");
        }

        idx.freeze();
        prop_assert!(idx.flat_is_current(), "refreeze must revalidate");
        prop_assert_ne!(
            idx.flat().map(|f| f.epoch()),
            stale_epoch,
            "refrozen snapshot must carry the new epoch"
        );
        let (frozen, thawed) = views(&idx);
        assert_views_agree(&frozen, &thawed, &live, &[q], 5, "after refreeze");
    }

    /// Deleting everything and freezing must leave an empty, well-formed
    /// snapshot; reinserting afterwards must still round-trip.
    #[test]
    fn drain_and_refill_round_trips(seed in any::<u64>(), n in 1usize..40) {
        let code_len = 16;
        let mut rng = StdRng::seed_from_u64(seed);
        let live = dataset(&mut rng, n, code_len);
        let mut idx = DynamicHaIndex::build(live.clone());
        for (code, id) in &live {
            prop_assert!(idx.delete(code, *id));
        }
        idx.freeze();
        prop_assert_eq!(idx.len(), 0);
        prop_assert_eq!(idx.dead_slots(), 0, "freeze must compact dead slots");
        let q = BinaryCode::random(code_len, &mut rng);
        prop_assert!(idx.search(&q, code_len as u32).is_empty());

        idx.insert(live[0].0.clone(), live[0].1);
        prop_assert!(!idx.flat_is_current());
        idx.freeze();
        let hits = idx.search(&live[0].0, 0);
        prop_assert_eq!(hits, vec![live[0].1]);
    }
}

/// The HA-Kern matrix: every kernel (scalar, lane-chunked, AVX2, AVX-512
/// — a kernel the host CPU lacks falls back to lanes, keeping the matrix
/// uniform across hosts) × every freeze-policy layout
/// (all-SoA, all-AoS, adaptive) must answer select, kNN and batch
/// byte-identically to the scalar/all-SoA baseline, and the baseline
/// must match the linear-scan oracle. This is the contract that makes
/// kernel choice a pure performance knob.
fn kernel_matrix_case(seed: u64, bits: usize, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let live = dataset(&mut rng, n, bits);
    let mut idx = DynamicHaIndex::build(live.clone());
    let queries: Vec<BinaryCode> = (0..3)
        .map(|_| {
            if rng.gen_bool(0.5) {
                let mut q = live[rng.gen_range(0..live.len())].0.clone();
                q.flip(rng.gen_range(0..bits));
                q
            } else {
                BinaryCode::random(bits, &mut rng)
            }
        })
        .collect();
    let radii: Vec<u32> = vec![0, 2, (bits / 8) as u32, (bits / 3) as u32];

    let policies = [
        ("soa", FreezePolicy::always_soa()),
        ("aos", FreezePolicy::always_aos()),
        ("adaptive", FreezePolicy::adaptive()),
    ];
    // Baseline: scalar kernel over the all-SoA layout.
    idx.freeze_with(FreezePolicy::always_soa());
    let baseline = idx.flat().expect("frozen").clone();
    let knn = |idx: &DynamicHaIndex, q: &BinaryCode, k: usize| {
        knn_by_radius(k, bits as u32, |h| idx.search_with_distances(q, h))
    };
    let knn_base: Vec<Vec<Vec<(TupleId, u32)>>> = queries
        .iter()
        .map(|q| [1usize, 5].iter().map(|&k| knn(&idx, q, k)).collect())
        .collect();
    for q in &queries {
        for &h in &radii {
            let want = baseline.view().with_kernel(Kernel::Scalar).search(q, h);
            assert_matches_oracle(want, &live, q, h, "scalar/SoA baseline");
        }
    }

    for (pname, policy) in policies {
        idx.freeze_with(policy);
        let flat = idx.flat().expect("frozen").clone();
        for kernel in Kernel::ALL {
            let view = flat.view().with_kernel(kernel);
            for q in &queries {
                for &h in &radii {
                    assert_eq!(
                        view.search(q, h),
                        baseline.view().with_kernel(Kernel::Scalar).search(q, h),
                        "select: bits={bits} layout={pname} kernel={} h={h}",
                        kernel.name()
                    );
                    assert_eq!(
                        view.search_with_distances(q, h),
                        baseline
                            .view()
                            .with_kernel(Kernel::Scalar)
                            .search_with_distances(q, h),
                        "distances: bits={bits} layout={pname} kernel={}",
                        kernel.name()
                    );
                }
            }
            assert_eq!(
                view.batch_search(&queries, radii[2]),
                baseline
                    .view()
                    .with_kernel(Kernel::Scalar)
                    .batch_search(&queries, radii[2]),
                "batch: bits={bits} layout={pname} kernel={}",
                kernel.name()
            );
        }
        // kNN rides on search_with_distances through the index surface;
        // one pass per policy (the index dispatches Kernel::detect()).
        for (i, q) in queries.iter().enumerate() {
            for (ki, k) in [1usize, 5].into_iter().enumerate() {
                assert_eq!(
                    knn(&idx, q, k),
                    knn_base[i][ki],
                    "kNN: bits={bits} layout={pname} q={i} k={k}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The kernel × layout matrix at every paper-relevant code width.
    #[test]
    fn kernel_matrix_byte_equal_at_every_width(seed in any::<u64>()) {
        for bits in [32usize, 64, 128, 512] {
            kernel_matrix_case(seed, bits, 60 + (seed as usize % 40));
        }
    }
}

/// The kernel × layout matrix on a wide frontier: 600 clustered 512-bit
/// codes, where descent levels run to dozens of sibling groups and
/// h = 170 keeps most of them alive.
#[test]
fn kernel_matrix_byte_equal_on_a_wide_512_bit_frontier() {
    kernel_matrix_case(99, 512, 600);
}

/// An adaptively laid-out snapshot must survive the full persistence
/// round trip: serialize (v2, with per-group layout flags), reopen via
/// mmap, and answer byte-identically under every kernel.
#[test]
fn adaptive_layout_store_round_trips_via_mmap() {
    let mut rng = StdRng::seed_from_u64(515);
    let live = dataset(&mut rng, 300, 512);
    let mut idx = DynamicHaIndex::build(live.clone());
    idx.freeze_with(FreezePolicy::adaptive());
    let flat = idx.flat().expect("frozen");
    assert!(
        flat.aos_fraction() > 0.0,
        "512-bit clustered data must produce AoS groups"
    );
    let bytes = flat.store_bytes();

    let dir = std::env::temp_dir();
    let path = dir.join(format!("ha-kern-roundtrip-{}.hst", std::process::id()));
    std::fs::write(&path, &bytes).expect("write snapshot");
    let store = HaStore::open_file(&path).expect("adaptive v2 file opens");
    #[cfg(unix)]
    assert!(store.is_mapped(), "unix open should mmap");
    let mapped = store.view();
    assert!(
        mapped.parts().group_layout.iter().any(|&f| f == 1),
        "layout flags must survive serialization"
    );
    for trial in 0..4 {
        let q = if trial % 2 == 0 {
            live[rng.gen_range(0..live.len())].0.clone()
        } else {
            BinaryCode::random(512, &mut rng)
        };
        for h in [0u32, 8, 60, 170] {
            let want = flat.search(&q, h);
            assert_matches_oracle(want.clone(), &live, &q, h, "frozen adaptive");
            for kernel in Kernel::ALL {
                assert_eq!(
                    mapped.with_kernel(kernel).search(&q, h),
                    want,
                    "mmap kernel={} h={h}",
                    kernel.name()
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
