//! The central correctness property of the whole suite: every index
//! returns exactly the linear-scan result set, across data distributions,
//! code lengths and thresholds (within each structure's completeness
//! guarantee).

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::testkit::{
    assert_matches_oracle, clustered_dataset, random_dataset,
};
use hamming_suite::index::{
    DhaConfig, DynamicHaIndex, HammingIndex, LinearScanIndex, MutableIndex, RadixTreeIndex,
    SegmentIndex, SegmentScheme, StaticHaIndex, TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn all_indexes(
    data: &[(BinaryCode, TupleId)],
    max_h: u32,
) -> Vec<(String, Box<dyn HammingIndex>)> {
    let code_len = data[0].0.len();
    let mh_tables = (max_h + 1) as usize;
    let he_tables = ((max_h as usize + 1).div_ceil(2)).max(1);
    let segments = |scheme, t| {
        Box::new(SegmentIndex::build(scheme, code_len, t, data.to_vec())) as Box<dyn HammingIndex>
    };
    vec![
        ("linear".into(), Box::new(LinearScanIndex::build(data.to_vec())) as _),
        ("radix".into(), Box::new(RadixTreeIndex::build(data.to_vec())) as _),
        ("sha".into(), Box::new(StaticHaIndex::build(data.to_vec())) as _),
        ("dha".into(), Box::new(DynamicHaIndex::build(data.to_vec())) as _),
        (format!("mh-{mh_tables}"), segments(SegmentScheme::Manku, mh_tables)),
        (format!("hengine-{he_tables}"), segments(SegmentScheme::HEngine, he_tables)),
        (format!("hmsearch-{he_tables}"), segments(SegmentScheme::HmSearch, he_tables)),
    ]
}

#[test]
fn all_indexes_equal_oracle_uniform_data() {
    for (code_len, max_h) in [(16usize, 5u32), (32, 6), (64, 8)] {
        let data = random_dataset(400, code_len, code_len as u64);
        let indexes = all_indexes(&data, max_h);
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..6 {
            let q = BinaryCode::random(code_len, &mut rng);
            let h = rng.gen_range(0..=max_h);
            for (name, idx) in &indexes {
                assert_matches_oracle(
                    idx.search(&q, h),
                    &data,
                    &q,
                    h,
                    &format!("{name} L={code_len} trial={trial}"),
                );
            }
        }
    }
}

#[test]
fn all_indexes_equal_oracle_clustered_data() {
    let data = clustered_dataset(600, 32, 5, 3, 77);
    let indexes = all_indexes(&data, 6);
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..6 {
        // Queries inside the clusters (dense result sets).
        let mut q = data[rng.gen_range(0..data.len())].0.clone();
        q.flip(rng.gen_range(0..32));
        let h = rng.gen_range(0..=6);
        for (name, idx) in &indexes {
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, name);
        }
    }
}

#[test]
fn all_indexes_equal_oracle_adversarial_duplicates() {
    // Many duplicate codes, a few unique ones.
    let mut rng = StdRng::seed_from_u64(3);
    let a = BinaryCode::random(24, &mut rng);
    let b = BinaryCode::random(24, &mut rng);
    let mut data: Vec<(BinaryCode, TupleId)> = Vec::new();
    for i in 0..50 {
        data.push((a.clone(), i));
    }
    for i in 50..80 {
        data.push((b.clone(), i));
    }
    for i in 80..100 {
        data.push((BinaryCode::random(24, &mut rng), i));
    }
    let indexes = all_indexes(&data, 5);
    for h in [0u32, 1, 3, 5] {
        for (name, idx) in &indexes {
            assert_matches_oracle(idx.search(&a, h), &data, &a, h, name);
            assert_matches_oracle(idx.search(&b, h), &data, &b, h, name);
        }
    }
}

#[test]
fn mutable_indexes_stay_equivalent_under_churn() {
    let code_len = 28;
    let initial = random_dataset(200, code_len, 9);
    let mut linear = LinearScanIndex::build(initial.clone());
    let mut radix = RadixTreeIndex::build(initial.clone());
    let mut sha = StaticHaIndex::build(initial.clone());
    let mut dha = DynamicHaIndex::build_with(
        initial.clone(),
        DhaConfig {
            insert_buffer_cap: 32,
            ..DhaConfig::default()
        },
    );
    let mut mh = SegmentIndex::build(SegmentScheme::Manku, code_len, 6, initial.clone());
    let mut he = SegmentIndex::build(SegmentScheme::HEngine, code_len, 3, initial.clone());
    let mut hmm = SegmentIndex::build(SegmentScheme::HmSearch, code_len, 3, initial.clone());
    let mut live = initial;
    let mut rng = StdRng::seed_from_u64(10);
    let mut next_id: TupleId = 10_000;

    for step in 0..150 {
        if rng.gen_bool(0.5) && !live.is_empty() {
            let pos = rng.gen_range(0..live.len());
            let (code, id) = live.swap_remove(pos);
            for deleted in [
                linear.delete(&code, id),
                radix.delete(&code, id),
                sha.delete(&code, id),
                dha.delete(&code, id),
                mh.delete(&code, id),
                he.delete(&code, id),
                hmm.delete(&code, id),
            ] {
                assert!(deleted, "step {step}: delete must succeed");
            }
        } else {
            let code = BinaryCode::random(code_len, &mut rng);
            for idx in [
                &mut linear as &mut dyn MutableIndex,
                &mut radix,
                &mut sha,
                &mut dha,
                &mut mh,
                &mut he,
                &mut hmm,
            ] {
                idx.insert(code.clone(), next_id);
            }
            live.push((code, next_id));
            next_id += 1;
        }
        if step % 25 == 0 {
            let q = BinaryCode::random(code_len, &mut rng);
            let h = rng.gen_range(0..5);
            for (name, idx) in [
                ("linear", &linear as &dyn HammingIndex),
                ("radix", &radix),
                ("sha", &sha),
                ("dha", &dha),
                ("mh", &mh),
                ("hengine", &he),
                ("hmsearch", &hmm),
            ] {
                assert_matches_oracle(
                    idx.search(&q, h),
                    &live,
                    &q,
                    h,
                    &format!("{name} step={step}"),
                );
            }
        }
    }
}

#[test]
fn long_codes_512_bits() {
    let data = random_dataset(150, 512, 21);
    let indexes = all_indexes(&data, 10);
    let mut rng = StdRng::seed_from_u64(22);
    for h in [0u32, 5, 10] {
        let q = BinaryCode::random(512, &mut rng);
        for (name, idx) in &indexes {
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, name);
        }
    }
}

#[test]
fn merged_partitions_equal_oracle() {
    let data = random_dataset(400, 32, 31);
    let parts: Vec<DynamicHaIndex> = data
        .chunks(50)
        .map(|c| DynamicHaIndex::build(c.to_vec()))
        .collect();
    let merged = DynamicHaIndex::merge_all(parts);
    merged.check_invariants();
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..8 {
        let q = BinaryCode::random(32, &mut rng);
        let h = rng.gen_range(0..8);
        assert_matches_oracle(merged.search(&q, h), &data, &q, h, "merged");
    }
}
