//! The MIH backend must be invisible: for ANY dataset (clustered or
//! sparse, 32- to 512-bit codes), ANY threshold — including thresholds
//! far past where pigeonhole schemes like Manku's go incomplete — ANY
//! chunk count and every bucket-directory regime (direct or hashed
//! slots), [`MihIndex`] answers every select, batch and kNN query with
//! exactly the ids the linear-scan oracle produces, byte-identical (after
//! canonical `(distance, id)` / id ordering) to the frozen HA-Flat
//! snapshot maintained over the same insert/delete history. This is the
//! `flat_equivalence.rs` pattern pointed at the second exact backend, and
//! it is what lets the query planner route freely: any backend, same
//! bytes.

use std::collections::HashSet;

use hamming_suite::bitcode::segment::Segmentation;
use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::select::knn_by_radius;
use hamming_suite::index::testkit::{
    assert_matches_oracle, oracle_select, random_at_distance, random_outside, random_within,
};
use hamming_suite::index::{
    DhaConfig, DynamicHaIndex, HammingIndex, MihIndex, MutableIndex, SegmentIndex, SegmentScheme,
    TupleId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The code widths of the benchmark grid: one and two words, the inline
/// maximum, and the wide GIST-style regime MIH exists for.
const BITS: [usize; 4] = [32, 64, 128, 512];

/// Clustered (4 centers + noise) or sparse (uniform) dataset.
fn dataset(
    rng: &mut StdRng,
    n: usize,
    code_len: usize,
    clustered: bool,
) -> Vec<(BinaryCode, TupleId)> {
    let centers: Vec<BinaryCode> = (0..4).map(|_| BinaryCode::random(code_len, rng)).collect();
    (0..n as TupleId)
        .map(|id| {
            let code = if clustered && rng.gen_bool(0.7) {
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

fn sorted(mut ids: Vec<TupleId>) -> Vec<TupleId> {
    ids.sort_unstable();
    ids
}

/// Replays mutation steps (biased 2:1 insert:delete, half the inserts
/// near-duplicates) on the HA-Index, mirroring them into `live` so the
/// oracle — and the MIH rebuilt from it — stays in sync.
fn churn(
    dha: &mut DynamicHaIndex,
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
            assert!(dha.delete(&code, id), "DHA delete of a live tuple");
        } else {
            let code = if !live.is_empty() && rng.gen_bool(0.5) {
                let mut c = live[rng.gen_range(0..live.len())].0.clone();
                c.flip(rng.gen_range(0..code_len));
                c
            } else {
                BinaryCode::random(code_len, rng)
            };
            dha.insert(code.clone(), *next_id);
            live.push((code, *next_id));
            *next_id += 1;
        }
    }
}

/// Select + batch + kNN: MIH ≡ frozen HA-Flat (canonical order) ≡ oracle.
fn assert_backends_agree(
    mih: &MihIndex,
    frozen: &DynamicHaIndex,
    live: &[(BinaryCode, TupleId)],
    queries: &[BinaryCode],
    radii: &[u32],
    ctx: &str,
) {
    let max_h = mih.code_len() as u32;
    for q in queries {
        for &h in radii {
            let m = mih.search(q, h);
            let f = sorted(frozen.search(q, h));
            assert_eq!(m, f, "{ctx}: select h={h} MIH vs HA-Flat");
            assert_matches_oracle(m, live, q, h, &format!("{ctx} mih h={h}"));
        }
    }
    if let Some(&h) = radii.iter().max() {
        let batch = mih.batch_search(queries, h);
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(got, &mih.search(q, h), "{ctx}: batch ≡ solo");
        }
    }
    for (i, q) in queries.iter().enumerate() {
        for k in [1usize, 3, 16] {
            let via_mih = knn_by_radius(k, max_h, |h| mih.search_with_distances(q, h));
            let via_flat = knn_by_radius(k, max_h, |h| frozen.search_with_distances(q, h));
            assert_eq!(via_mih, via_flat, "{ctx}: kNN q={i} k={k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary build → churn histories over every code width: after
    /// every burst of mutations the MIH built over the live rows answers
    /// exactly like the refrozen HA-Flat snapshot and the linear-scan
    /// oracle, at arbitrary thresholds (including past the code width).
    #[test]
    fn mih_equals_flat_and_oracle_under_arbitrary_histories(
        seed in any::<u64>(),
        bits_sel in 0usize..4,
        initial in 0usize..90,
        bursts in 1usize..3,
        ops_per_burst in 1usize..30,
        clustered in any::<bool>(),
        h_arbitrary in 0u32..600,
    ) {
        let code_len = BITS[bits_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = dataset(&mut rng, initial, code_len, clustered);
        let mut dha = DynamicHaIndex::build_with(
            live.clone(),
            DhaConfig { insert_buffer_cap: 8, ..DhaConfig::default() },
        );
        if live.is_empty() {
            // Build on empty input leaves the DHA with no code length;
            // build it over one tuple instead.
            let c = BinaryCode::random(code_len, &mut rng);
            dha = DynamicHaIndex::build(std::iter::once((c.clone(), 50_000)));
            live.push((c, 50_000));
        }
        let mut next_id: TupleId = 100_000;
        let radii = [0, 1, 3, 6, h_arbitrary.min(code_len as u32 + 8)];
        for burst in 0..bursts {
            churn(&mut dha, &mut live, ops_per_burst, code_len, &mut rng, &mut next_id);
            dha.freeze();
            let mih = MihIndex::build(code_len, live.clone());
            prop_assert!(dha.flat_is_current());
            prop_assert_eq!(mih.len(), dha.len(), "len after burst {}", burst);
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
            assert_backends_agree(
                &mih, &dha, &live, &queries, &radii,
                &format!("seed={seed} bits={code_len} burst={burst}"),
            );
        }
    }

    /// Every explicit chunk count a width admits (not just the
    /// auto-tuned one) answers identically: the pigeonhole budget
    /// `⌊h/m⌋` + remainder distribution is exact for all m.
    #[test]
    fn every_chunk_count_is_exact(
        seed in any::<u64>(),
        n in 1usize..60,
        chunks in 1usize..12,
        h in 0u32..40,
    ) {
        let code_len = 64;
        let mut rng = StdRng::seed_from_u64(seed);
        let live = dataset(&mut rng, n, code_len, true);
        let mih = MihIndex::with_chunks(code_len, chunks.min(code_len), live.clone());
        let q = BinaryCode::random(code_len, &mut rng);
        assert_matches_oracle(
            mih.search(&q, h), &live, &q, h,
            &format!("m={chunks} h={h}"),
        );
    }

    /// Both bucket-directory regimes are exact on the probe path, with
    /// duplicate codes and queries at exactly `h` and `h + 1` from stored
    /// codes. A `w`-bit chunk with `D` distinct values is direct-addressed
    /// exactly when `D > 2^(w−4)` (the rule `b = min(w, ⌈log₂ D⌉ + 3)`,
    /// pinned in `mih.rs`): a few hundred rows in 16-bit chunks stay far
    /// below that, so values hash into slots they may share; 400 uniform
    /// rows in 8-bit chunks are far above it.
    #[test]
    fn every_directory_regime_is_exact(
        seed in any::<u64>(),
        hashed in any::<bool>(),
        n in 100usize..300,
        h in 0u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (code_len, chunks, n) = if hashed { (64, 4, n) } else { (32, 4, 400) };
        let mut data = dataset(&mut rng, n, code_len, hashed);
        let copies: Vec<_> =
            data.iter().step_by(9).map(|(c, id)| (c.clone(), id + 50_000)).collect();
        data.extend(copies);
        data.push(data[0].clone());
        let mih = MihIndex::with_chunks(code_len, chunks, data.clone());
        let seg = Segmentation::new(code_len, chunks);
        for k in 0..chunks {
            let values: HashSet<u64> = data.iter().map(|(c, _)| seg.extract(c, k)).collect();
            let width = seg.bounds(k).1;
            prop_assert_eq!(values.len() > 1 << (width - 4), !hashed, "chunk {}", k);
        }
        prop_assert!(!mih.would_scan(h), "the probe path must run");
        for (stored, id) in data.iter().step_by(data.len() / 24) {
            let at = random_at_distance(stored, h, &mut rng);
            let past = random_at_distance(stored, h + 1, &mut rng);
            for q in [stored, &at, &past] {
                assert_exact(&mih, &data, q, h, &format!("hashed={hashed} id={id}"));
            }
        }
    }
}

/// 512-bit wide-code spot check with an explicit small chunk count (the
/// configuration the historical ≤64-bit segment limit rejected): eight
/// 64-bit chunks, all thresholds, including one past every chunk budget.
#[test]
fn wide_codes_with_word_width_chunks_are_exact() {
    let mut rng = StdRng::seed_from_u64(512);
    let live = dataset(&mut rng, 150, 512, false);
    let mih = MihIndex::with_chunks(512, 8, live.clone());
    let mut dha = DynamicHaIndex::build(live.clone());
    dha.freeze();
    let queries: Vec<BinaryCode> = live.iter().take(2).map(|(c, _)| c.clone()).collect();
    assert_backends_agree(&mih, &dha, &live, &queries, &[0, 3, 6, 40, 300], "512/8");
    assert!(mih.would_scan(300), "h=300 must take the scan fallback");
    assert!(!mih.would_scan(0));
}

/// The four multi-table indexes that de-duplicate candidates through the
/// one shared per-thread seen-set, the three pigeonhole baselines sized
/// to be complete up to `h = 3`.
fn multi_table_indexes(
    code_len: usize,
    data: &[(BinaryCode, TupleId)],
) -> Vec<Box<dyn HammingIndex>> {
    vec![
        Box::new(MihIndex::build(code_len, data.to_vec())),
        Box::new(SegmentIndex::build(SegmentScheme::Manku, code_len, 4, data.to_vec())),
        Box::new(SegmentIndex::build(SegmentScheme::HEngine, code_len, 2, data.to_vec())),
        Box::new(SegmentIndex::build(SegmentScheme::HmSearch, code_len, 2, data.to_vec())),
    ]
}

/// Byte-equality with the oracle **including multiplicity** —
/// `assert_matches_oracle` dedups, which would hide a row emitted twice.
fn assert_exact(
    idx: &dyn HammingIndex,
    data: &[(BinaryCode, TupleId)],
    q: &BinaryCode,
    h: u32,
    ctx: &str,
) {
    assert_eq!(
        sorted(idx.search(q, h)),
        oracle_select(data, q, h),
        "{ctx}: {} select(q={q}, h={h})",
        idx.name()
    );
}

/// Duplicate `(code, id)` items are distinct rows and all come back; a
/// row sitting in *every* probed bucket (query = its stored code) comes
/// back once per stored copy, not once per table.
#[test]
fn duplicates_keep_multiplicity_and_multi_table_rows_appear_once() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut data = dataset(&mut rng, 400, 64, true);
    let (code, id) = data[5].clone();
    data.push((code.clone(), id));
    data.push((code.clone(), id));
    data.push((code.clone(), 9_000));
    for idx in multi_table_indexes(64, &data) {
        for h in 0..=3 {
            assert_exact(idx.as_ref(), &data, &code, h, "duplicates");
            let got = idx.search(&code, h);
            assert_eq!(got.iter().filter(|&&i| i == id).count(), 3, "{} h={h}", idx.name());
            assert_eq!(got.iter().filter(|&&i| i == 9_000).count(), 1, "{} h={h}", idx.name());
        }
    }
    // MIH at h >= m probes every chunk table, and a stored code matches
    // its own bucket in each of them: four sightings, one answer.
    let mih = MihIndex::with_chunks(64, 4, data.clone());
    for h in [4u32, 5, 7, 8] {
        assert!(!mih.would_scan(h), "h={h} must exercise the probe path");
        for (q, _) in data.iter().step_by(37) {
            assert_exact(&mih, &data, q, h, "every chunk probed");
        }
    }
}

/// Queries generated at exactly distance `h` (must hit) and `h + 1` (must
/// miss) from stored codes, plus uniformly inside/outside the ball.
#[test]
fn boundary_queries_at_h_and_h_plus_one_are_exact() {
    let mut rng = StdRng::seed_from_u64(43);
    for code_len in BITS {
        let data = dataset(&mut rng, 300, code_len, true);
        let indexes = multi_table_indexes(code_len, &data);
        for (stored, id) in data.iter().step_by(29) {
            for h in [0u32, 1, 3, 6, 9] {
                let at = random_at_distance(stored, h, &mut rng);
                let past = random_at_distance(stored, h + 1, &mut rng);
                let inside = random_within(stored, h, &mut rng);
                let outside = random_outside(stored, h, &mut rng);
                for idx in &indexes {
                    if idx.complete_up_to().is_some_and(|max| h > max) {
                        continue;
                    }
                    let ctx = format!("bits={code_len} id={id}");
                    for q in [&at, &past, &inside, &outside] {
                        assert_exact(idx.as_ref(), &data, q, h, &ctx);
                    }
                    assert!(idx.search(&at, h).contains(id), "{ctx}: at distance h");
                    assert!(idx.search(&inside, h).contains(id), "{ctx}: within h");
                    assert!(!idx.search(&past, h).contains(id), "{ctx}: at distance h+1");
                    assert!(!idx.search(&outside, h).contains(id), "{ctx}: outside h");
                }
            }
        }
    }
}

/// One thread, one seen-set: searches alternate between a large and a
/// small index of every multi-table type for far more than 256
/// consecutive queries, so the marks are reused across indexes of
/// different sizes and the 8-bit stamp wraps several times.
#[test]
fn seen_set_reuse_across_indexes_and_stamp_wraps_stays_exact() {
    let mut rng = StdRng::seed_from_u64(47);
    let large = dataset(&mut rng, 2_000, 64, true);
    let small = dataset(&mut rng, 40, 64, true);
    let big = multi_table_indexes(64, &large);
    let little = multi_table_indexes(64, &small);
    for step in 0..1_200usize {
        // Round-robin over the four types, large and small alternating.
        let (indexes, data) = if step % 2 == 0 { (&big, &large) } else { (&little, &small) };
        let idx = indexes[step / 2 % indexes.len()].as_ref();
        let stored = &data[rng.gen_range(0..data.len())].0;
        let q = random_within(stored, 4, &mut rng);
        assert_exact(idx, data, &q, (step % 4) as u32, &format!("step {step}"));
    }
    // The wrap itself, deterministically: a row marked by one query and
    // then left alone for exactly one stamp cycle (254 queries that touch
    // only the small index's rows) must not read as already seen when the
    // same stamp comes round again.
    let target = &large[large.len() - 1].0; // a row the small index never marks
    for (big, little) in big.iter().zip(&little) {
        assert_exact(big.as_ref(), &large, target, 0, "before the cycle");
        for i in 0..254 {
            assert_exact(little.as_ref(), &small, &small[i % small.len()].0, 0, "filler");
        }
        assert_exact(big.as_ref(), &large, target, 0, "one full stamp cycle later");
    }
}
