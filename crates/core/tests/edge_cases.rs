//! Edge cases every index must handle identically.

use ha_bitcode::BinaryCode;
use ha_core::testkit::random_dataset;
use ha_core::{
    DhaConfig, DynamicHaIndex, HammingIndex, LinearScanIndex, MutableIndex, RadixTreeIndex,
    SegmentIndex, SegmentScheme, StaticHaIndex, TupleId,
};

const SCHEMES: [SegmentScheme; 3] =
    [SegmentScheme::Manku, SegmentScheme::HEngine, SegmentScheme::HmSearch];

fn single(code: &str) -> Vec<(BinaryCode, TupleId)> {
    vec![(code.parse().unwrap(), 0)]
}

#[test]
fn empty_dynamic_index_answers_empty() {
    let idx = DynamicHaIndex::empty(16, DhaConfig::default());
    assert!(idx.is_empty());
    assert!(idx.search(&BinaryCode::zero(16), 16).is_empty());
    assert!(idx.search_codes(&BinaryCode::zero(16), 16).is_empty());
}

#[test]
fn single_tuple_everywhere() {
    let data = single("10101010");
    let q_hit: BinaryCode = "10101011".parse().unwrap();
    let q_miss: BinaryCode = "01010101".parse().unwrap();
    let checks: Vec<(&str, Box<dyn HammingIndex>)> = vec![
        ("linear", Box::new(LinearScanIndex::build(data.clone()))),
        ("radix", Box::new(RadixTreeIndex::build(data.clone()))),
        ("sha", Box::new(StaticHaIndex::build(data.clone()))),
        ("dha", Box::new(DynamicHaIndex::build(data.clone()))),
        ("mh", Box::new(SegmentIndex::build(SegmentScheme::Manku, 8, 2, data.clone()))),
        ("hengine", Box::new(SegmentIndex::build(SegmentScheme::HEngine, 8, 1, data.clone()))),
        ("hmsearch", Box::new(SegmentIndex::build(SegmentScheme::HmSearch, 8, 1, data.clone()))),
    ];
    for (name, idx) in checks {
        assert_eq!(idx.len(), 1, "{name}");
        assert_eq!(idx.search(&q_hit, 1), vec![0], "{name}");
        assert!(idx.search(&q_miss, 1).is_empty(), "{name}");
        // Completeness at the maximum threshold only holds inside each
        // structure's guarantee (the pigeonhole filters stop there).
        if idx.complete_up_to().is_none_or(|g| g >= 8) {
            assert_eq!(idx.search(&q_miss, 8).len(), 1, "{name} at max h");
        }
    }
}

#[test]
fn h_zero_is_exact_lookup() {
    let data = random_dataset(200, 32, 1);
    let dha = DynamicHaIndex::build(data.clone());
    let radix = RadixTreeIndex::build(data.clone());
    for (code, id) in data.iter().step_by(17) {
        assert_eq!(dha.search(code, 0), vec![*id]);
        assert_eq!(radix.search(code, 0), vec![*id]);
    }
}

#[test]
fn h_equal_code_len_returns_all() {
    let data = random_dataset(64, 16, 2);
    for idx in [
        Box::new(DynamicHaIndex::build(data.clone())) as Box<dyn HammingIndex>,
        Box::new(StaticHaIndex::build(data.clone())),
        Box::new(RadixTreeIndex::build(data.clone())),
    ] {
        assert_eq!(idx.search(&BinaryCode::zero(16), 16).len(), 64);
    }
}

#[test]
fn all_identical_codes() {
    let code: BinaryCode = "1111000011110000".parse().unwrap();
    let data: Vec<(BinaryCode, TupleId)> = (0..100).map(|i| (code.clone(), i)).collect();
    let dha = DynamicHaIndex::build(data.clone());
    dha.check_invariants();
    assert_eq!(dha.leaf_count(), 1);
    assert_eq!(dha.search(&code, 0).len(), 100);
    assert!(dha.search(&code.not(), 15).is_empty());
    // Static index: one path.
    let sha = StaticHaIndex::build(data);
    assert_eq!(sha.search(&code, 0).len(), 100);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn query_length_mismatch_panics_dha() {
    let idx = DynamicHaIndex::build(single("1010"));
    let _ = idx.search(&BinaryCode::zero(8), 1);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn insert_length_mismatch_panics_radix() {
    let mut idx = RadixTreeIndex::build(single("1010"));
    idx.insert(BinaryCode::zero(8), 1);
}

#[test]
fn one_bit_codes() {
    let data: Vec<(BinaryCode, TupleId)> = vec![
        ("0".parse().unwrap(), 0),
        ("1".parse().unwrap(), 1),
        ("1".parse().unwrap(), 2),
    ];
    let idx = DynamicHaIndex::build(data.clone());
    idx.check_invariants();
    let zero: BinaryCode = "0".parse().unwrap();
    assert_eq!(idx.search(&zero, 0), vec![0]);
    let mut all = idx.search(&zero, 1);
    all.sort_unstable();
    assert_eq!(all, vec![0, 1, 2]);
}

#[test]
fn window_larger_than_dataset() {
    let data = random_dataset(10, 24, 3);
    let idx = DynamicHaIndex::build_with(
        data.clone(),
        DhaConfig {
            window: 1_000,
            ..DhaConfig::default()
        },
    );
    idx.check_invariants();
    let q = data[0].0.clone();
    assert!(idx.search(&q, 0).contains(&0));
}

#[test]
fn degenerate_window_and_depth_clamped() {
    let data = random_dataset(50, 24, 4);
    // window < 2 and depth 0 get clamped internally.
    let idx = DynamicHaIndex::build_with(
        data.clone(),
        DhaConfig {
            window: 0,
            max_depth: 0,
            ..DhaConfig::default()
        },
    );
    idx.check_invariants();
    assert_eq!(idx.len(), 50);
    let q = data[7].0.clone();
    assert!(idx.search(&q, 0).contains(&7));
}

#[test]
fn delete_last_then_insert_again() {
    let code: BinaryCode = "110011001100".parse().unwrap();
    let mut idx = DynamicHaIndex::build(vec![(code.clone(), 5)]);
    assert!(idx.delete(&code, 5));
    assert!(idx.is_empty());
    idx.insert(code.clone(), 6);
    idx.flush();
    assert_eq!(idx.search(&code, 0), vec![6]);
    idx.check_invariants();
}

#[test]
fn mh_with_more_tables_than_needed() {
    // As many tables as bits (1-bit segments).
    let data = random_dataset(64, 16, 5);
    let idx = SegmentIndex::build(SegmentScheme::Manku, 16, 16, data.clone());
    assert_eq!(idx.complete_up_to(), Some(15));
    for (c, id) in data.iter().take(5) {
        assert!(idx.search(c, 3).contains(id));
    }
}

#[test]
fn segment_indexes_build_empty() {
    for scheme in SCHEMES {
        let mut idx = SegmentIndex::build(scheme, 32, 2, Vec::new());
        assert!(idx.is_empty(), "{scheme:?}");
        assert_eq!(idx.code_len(), 32);
        assert!(idx.search(&BinaryCode::zero(32), 3).is_empty(), "{scheme:?}");
        assert!(!idx.delete(&BinaryCode::zero(32), 0), "{scheme:?}");
        idx.insert(BinaryCode::zero(32), 7);
        assert_eq!(idx.search(&BinaryCode::zero(32), 0), vec![7], "{scheme:?}");
    }
}

/// `u64::MAX` is an ordinary tuple id: no index reserves it as a deleted
/// marker.
#[test]
fn max_tuple_id_is_an_ordinary_id() {
    let data = random_dataset(50, 32, 6);
    let code = data[9].0.not();
    let mut indexes: Vec<(String, Box<dyn MutableIndex>)> = vec![
        ("linear".into(), Box::new(LinearScanIndex::build(data.clone()))),
        ("dha".into(), Box::new(DynamicHaIndex::build(data.clone()))),
    ];
    for scheme in SCHEMES {
        let idx = SegmentIndex::build(scheme, 32, 2, data.clone());
        indexes.push((format!("{scheme:?}"), Box::new(idx)));
    }
    for (name, idx) in &mut indexes {
        idx.insert(code.clone(), TupleId::MAX);
        assert_eq!(idx.search(&code, 0), vec![TupleId::MAX], "{name}");
        assert!(idx.search(&code, 3).contains(&TupleId::MAX), "{name}");
        assert!(idx.delete(&code, TupleId::MAX), "{name}");
        assert!(!idx.search(&code, 3).contains(&TupleId::MAX), "{name}");
        assert!(!idx.delete(&code, TupleId::MAX), "{name}");
        assert_eq!(idx.len(), 50, "{name}");
    }
}
