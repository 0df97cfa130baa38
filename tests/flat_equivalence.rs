//! The frozen CSR/SoA snapshot must be invisible: for ANY interleaving of
//! H-Build, H-Insert and H-Delete, a frozen [`FlatHaIndex`] answers every
//! select, distance, code and kNN query **byte-identically** (same ids,
//! same order) to the mutable arena's BFS, and both agree with the
//! linear-scan oracle at every radius. These properties generate arbitrary mutation
//! histories and hold the snapshot to that claim, including the
//! epoch-invalidation path (mutate after freeze → stale snapshot must be
//! bypassed, refreeze must revalidate).

use hamming_suite::bitcode::{BinaryCode, Kernel};
use hamming_suite::index::select::knn_by_radius;
use hamming_suite::index::testkit::assert_matches_oracle;
use hamming_suite::index::{DhaConfig, DynamicHaIndex, HammingIndex, MutableIndex, TupleId};
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

/// Every radius 0..=max_h: frozen ≡ thawed byte-for-byte across select,
/// distances, codes and kNN, and both match the oracle.
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
        }
    }
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
/// uniform across hosts) over the one frozen snapshot must answer select,
/// distances and kNN byte-identically to the scalar kernel, and the scalar
/// kernel must match the linear-scan oracle. This is the contract that
/// makes kernel choice a pure performance knob. The index is built with
/// H-Build windows of `window` slots; returns the snapshot's AoS group
/// fraction, so a caller can check that both group layouts were under
/// test.
fn kernel_matrix_case(seed: u64, bits: usize, n: usize, window: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let live = dataset(&mut rng, n, bits);
    let config = DhaConfig { window, ..DhaConfig::default() };
    let (idx, arena) = views(&DynamicHaIndex::build_with(live.clone(), config));
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

    let flat = idx.flat().expect("frozen");
    let scalar = flat.view().with_kernel(Kernel::Scalar);
    for q in &queries {
        for &h in &radii {
            assert_matches_oracle(scalar.search(q, h), &live, q, h, "scalar kernel");
        }
    }
    for kernel in Kernel::ALL {
        let view = flat.view().with_kernel(kernel);
        for q in &queries {
            for &h in &radii {
                assert_eq!(
                    view.search(q, h),
                    scalar.search(q, h),
                    "select: bits={bits} kernel={} h={h}",
                    kernel.name()
                );
                assert_eq!(
                    view.search_with_distances(q, h),
                    scalar.search_with_distances(q, h),
                    "distances: bits={bits} kernel={}",
                    kernel.name()
                );
            }
        }
    }
    // kNN rides on search_with_distances through the index surface (the
    // index dispatches Kernel::detect()); the arena BFS visits in the same
    // order, so ties break identically.
    let knn = |idx: &DynamicHaIndex, q: &BinaryCode, k: usize| {
        knn_by_radius(k, bits as u32, |h| idx.search_with_distances(q, h))
    };
    for (i, q) in queries.iter().enumerate() {
        for k in [1usize, 5] {
            assert_eq!(knn(&idx, q, k), knn(&arena, q, k), "kNN: bits={bits} q={i} k={k}");
        }
    }
    flat.aos_fraction()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The kernel matrix at every paper-relevant code width.
    #[test]
    fn kernel_matrix_byte_equal_at_every_width(seed in any::<u64>()) {
        for bits in [32usize, 64, 128, 512] {
            kernel_matrix_case(seed, bits, 60 + (seed as usize % 40), 8);
        }
    }
}

/// The kernel matrix on a wide frontier: 600 clustered 512-bit codes,
/// where descent levels run to dozens of sibling groups and h = 170 keeps
/// most of them alive. Windows of 24 make full groups of 24 siblings,
/// laid out as SoA word-planes, and some groups narrower than 16 (a
/// level's trailing window, the top of the tree), laid out as AoS rows,
/// so every kernel is checked on both layouts (at the default window of
/// 8 every 512-bit group here is AoS).
#[test]
fn kernel_matrix_byte_equal_on_a_wide_512_bit_frontier() {
    let aos = kernel_matrix_case(99, 512, 600, 24);
    assert!(0.0 < aos && aos < 1.0, "both layouts must be present, AoS fraction {aos}");
}

/// A snapshot holding both group layouts (windows of 24: full groups SoA,
/// narrow trailing ones AoS) must survive the full persistence round trip:
/// serialize (with per-group layout flags), reopen via mmap, and answer
/// byte-identically under every kernel.
#[test]
fn adaptive_layout_store_round_trips_via_mmap() {
    let mut rng = StdRng::seed_from_u64(515);
    let live = dataset(&mut rng, 300, 512);
    let config = DhaConfig { window: 24, ..DhaConfig::default() };
    let mut idx = DynamicHaIndex::build_with(live.clone(), config);
    let flat = idx.freeze();
    let aos = flat.aos_fraction();
    assert!(
        0.0 < aos && aos < 1.0,
        "512-bit windows of 24 must produce AoS and SoA groups, AoS fraction {aos}"
    );
    let bytes = flat.store_bytes();

    let dir = std::env::temp_dir();
    let path = dir.join(format!("ha-kern-roundtrip-{}.hst", std::process::id()));
    std::fs::write(&path, &bytes).expect("write snapshot");
    let store = HaStore::open_file(&path).expect("snapshot file opens");
    #[cfg(unix)]
    assert!(store.is_mapped(), "unix open should mmap");
    let mapped = store.view();
    assert_eq!(
        mapped.parts().group_layout,
        flat.view().parts().group_layout,
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
            assert_matches_oracle(want.clone(), &live, &q, h, "frozen snapshot");
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

/// Both sweeps of a flat H-Search run and agree: a child group whose
/// children are all leaves — the all-leaf suffix of the BFS node ids —
/// is swept over the leaves' stored code rows, every other group over
/// its `bits‖mask` patterns. H-Insert and H-Delete after the build leave
/// leaves at mixed depths, so the frozen snapshot has leaves on both
/// sides of the suffix bound, and answers must still equal the linear
/// oracle — ids and distances — under every kernel, at h and h + 1.
#[test]
fn leaf_row_sweep_and_masked_sweep_agree_at_mixed_depths() {
    const NONE: u32 = u32::MAX;
    for bits in [64usize, 128, 512] {
        let mut rng = StdRng::seed_from_u64(4_400 + bits as u64);
        let mut live = dataset(&mut rng, 1000, bits);
        let mut idx = DynamicHaIndex::build_with(
            live.clone(),
            DhaConfig { insert_buffer_cap: 8, ..DhaConfig::default() },
        );
        let mut next_id: TupleId = 500_000;
        churn(&mut idx, &mut live, 500, bits, &mut rng, &mut next_id);
        idx.freeze();
        idx.check_invariants();
        let thawed = {
            let mut t = idx.clone();
            t.thaw();
            t
        };
        let flat = idx.flat().expect("frozen");
        let view = flat.view();
        let parts = view.parts();
        let (rc, n) = (parts.root_count, parts.leaf_slot.len());

        // The suffix bound is exactly "after the last internal node".
        let bound = parts.leaf_suffix;
        assert!(bound < n, "bits={bits}: the all-leaf suffix is empty");
        assert!(bound > 0 && parts.leaf_slot[bound - 1] == NONE, "bits={bits}: bound too high");
        assert!(parts.leaf_slot[bound..].iter().all(|&s| s != NONE), "bits={bits}: bound too low");
        // A child group that starts before the bound holds a leaf, so the
        // masked sweep reports leaves too.
        let mixed = (0..n).filter(|&p| parts.leaf_slot[p] == NONE).any(|p| {
            let lo = rc + parts.child_start[p] as usize;
            let hi = rc + parts.child_start[p + 1] as usize;
            lo < bound && (lo..hi).any(|v| parts.leaf_slot[v] != NONE)
        });
        assert!(mixed, "bits={bits}: no leaf in a group before the suffix");

        // Leaf slot → node id, to see which sweep reported each answer.
        let mut node_of_slot = vec![0usize; view.leaf_count()];
        for (v, &s) in parts.leaf_slot.iter().enumerate() {
            if s != NONE {
                node_of_slot[s as usize] = v;
            }
        }
        let node_of_id = |id: TupleId| {
            let at = parts.leaf_ids.iter().position(|&x| x == id).expect("reported id is indexed");
            let slot = parts.leaf_ids_start.partition_point(|&x| x as usize <= at) - 1;
            node_of_slot[slot]
        };

        let queries: Vec<BinaryCode> = (0..24)
            .map(|i| {
                let mut q = live[(i * 37) % live.len()].0.clone();
                for _ in 0..i % 4 {
                    q.flip(rng.gen_range(0..bits));
                }
                q
            })
            .collect();
        let (mut from_rows, mut from_patterns) = (0, 0);
        for q in &queries {
            for h in [3u32, 4] {
                let mut want: Vec<(TupleId, u32)> = live
                    .iter()
                    .map(|(c, id)| (*id, c.hamming(q)))
                    .filter(|&(_, d)| d <= h)
                    .collect();
                want.sort_unstable();
                let arena = thawed.search_with_distances(q, h);
                for kernel in Kernel::ALL {
                    let got = view.with_kernel(kernel).search_with_distances(q, h);
                    assert_eq!(got, arena, "bits={bits} kernel={} h={h}: order", kernel.name());
                    let mut sorted = got.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, want, "bits={bits} kernel={} h={h}: oracle", kernel.name());
                }
                for (id, _) in arena {
                    let v = node_of_id(id);
                    if v >= bound {
                        from_rows += 1;
                    } else if v >= rc {
                        from_patterns += 1;
                    }
                }
            }
        }
        assert!(from_rows > 0, "bits={bits}: the row sweep reported nothing");
                assert!(from_patterns > 0, "bits={bits}: the masked sweep reported no leaf");
    }
}
