//! Every worked example in the paper, end to end, as executable checks.

use hamming_suite::bitcode::{BinaryCode, MaskedCode};
use hamming_suite::index::select::{hamming_join, hamming_select};
use hamming_suite::index::testkit::{paper_table_r, paper_table_s};
use hamming_suite::index::{
    DhaConfig, DynamicHaIndex, HammingIndex, RadixTreeIndex, StaticHaIndex,
};

/// Example 1 (§3): Hamming-select over Table 2a.
#[test]
fn example_1_select() {
    let s = paper_table_s();
    let q: BinaryCode = "101100010".parse().unwrap();
    for idx_result in [
        hamming_select(&DynamicHaIndex::build(s.clone()), &q, 3),
        hamming_select(&StaticHaIndex::build(s.clone()), &q, 3),
        hamming_select(&RadixTreeIndex::build(s.clone()), &q, 3),
    ] {
        assert_eq!(idx_result, vec![0, 3, 4, 6], "output is {{t0, t3, t4, t6}}");
    }
}

/// Example 1 (§3): Hamming-join of Tables 2b and 2a.
#[test]
fn example_1_join() {
    let r = paper_table_r();
    let s = paper_table_s();
    let idx = DynamicHaIndex::build(s);
    let pairs = hamming_join(&idx, &r, 3);
    let want: Vec<(u64, u64)> = vec![
        (0, 0), (0, 3), (0, 4), (0, 6),
        (1, 0), (1, 3), (1, 4), (1, 6),
        (2, 3),
    ];
    assert_eq!(pairs, want);
}

/// Definition 3 (§4.1): the FLSS examples for t0.
#[test]
fn definition_3_flss() {
    let t0: BinaryCode = "001001010".parse().unwrap();
    // "U = '····01·1·'-style contiguous pattern is an FLSS of t0" — the
    // paper's positive example uses the contiguous agreeing run.
    let yes: MaskedCode = "..1001...".parse().unwrap();
    assert!(yes.matches(&t0));
    // "V = '101······' is not an FLSS of t0's binary code."
    let no: MaskedCode = "101......".parse().unwrap();
    assert!(!no.matches(&t0));
}

/// Example 2 (§4.1), Case 1: the shared prefix FLSS of t0 and t1 prunes
/// both at h = 2.
#[test]
fn example_2_case_1() {
    let t0: BinaryCode = "001001010".parse().unwrap();
    let t1: BinaryCode = "001011101".parse().unwrap();
    let flss: MaskedCode = "001......".parse().unwrap();
    assert!(flss.matches(&t0) && flss.matches(&t1));
    let tq: BinaryCode = "110010010".parse().unwrap();
    assert!(flss.distance_to(&tq) >= 3, "lower bound exceeds h = 2");
    // Downward closure: neither t0 nor t1 can be within 2.
    assert!(t0.hamming(&tq) > 2);
    assert!(t1.hamming(&tq) > 2);
}

/// Example 2 (§4.1), Case 3: the shared FLSSeq of t3 and t5 prunes both.
#[test]
fn example_2_case_3() {
    let t3: BinaryCode = "101001010".parse().unwrap();
    let t5: BinaryCode = "101011101".parse().unwrap();
    let shared = MaskedCode::full(t3.clone()).common(&MaskedCode::full(t5.clone()));
    // The paper names "1010·1···" as a shared FLSSeq; the maximal one we
    // extract must contain it.
    let named: MaskedCode = "1010.1...".parse().unwrap();
    assert!(named.mask().is_subset_of(shared.mask()));
    assert!(shared.matches(&t3) && shared.matches(&t5));
}

/// Example 3 (§4.2): Radix-Tree pruning of the shared 001-prefix.
#[test]
fn example_3_radix_prune() {
    let s = paper_table_s();
    let idx = RadixTreeIndex::build(s);
    let tq: BinaryCode = "110010110".parse().unwrap();
    let got = hamming_select(&idx, &tq, 2);
    assert!(!got.contains(&0) && !got.contains(&1), "t0, t1 discarded early");
}

/// §4.6 / Table 3: the H-Search trace for tq = 010001011, h = 3 ends with
/// exactly {t0}, and the traced rounds show queue evolution like Table 3.
#[test]
fn table_3_trace() {
    let idx = DynamicHaIndex::build_with(
        paper_table_s(),
        DhaConfig {
            window: 2,
            max_depth: 4,
            ..DhaConfig::default()
        },
    );
    let q: BinaryCode = "010001011".parse().unwrap();
    let (ids, steps) = idx.search_trace(&q, 3);
    assert_eq!(ids, vec![0]);
    assert!(steps.len() >= 3, "multiple BFS rounds");
    assert!(steps.last().unwrap().queue_after.is_empty(), "queue drains");
    assert_eq!(steps.last().unwrap().results_so_far, vec![0]);
}

/// §4.3 / Figure 2: static segmentation of t2 into 011|001|100.
#[test]
fn figure_2_segments() {
    use hamming_suite::bitcode::segment::Segmentation;
    let t2: BinaryCode = "011001100".parse().unwrap();
    let seg = Segmentation::new(9, 3);
    let segments: Vec<u64> = (0..seg.count()).map(|i| seg.extract(&t2, i)).collect();
    assert_eq!(segments, vec![0b011, 0b001, 0b100]);
}

/// Example 4 (§4.7): the 3-bit full-space HA-Index has O(log n) structure:
/// few internal nodes relative to the 8 leaves.
#[test]
fn example_4_full_binary_space() {
    let all: Vec<(BinaryCode, u64)> = (0..8u64)
        .map(|v| (BinaryCode::from_u64(v, 3), v))
        .collect();
    let idx = DynamicHaIndex::build_with(
        all.clone(),
        DhaConfig {
            window: 2,
            max_depth: 3,
            ..DhaConfig::default()
        },
    );
    idx.check_invariants();
    assert_eq!(idx.leaf_count(), 8);
    // The paper counts 6 internal nodes for this configuration; exact
    // structure depends on tie-breaks, but the sharing must be real.
    assert!(idx.internal_node_count() <= 7, "got {}", idx.internal_node_count());
    // And search is exact for every query and threshold.
    for v in 0..8u64 {
        let q = BinaryCode::from_u64(v, 3);
        for h in 0..=3u32 {
            let mut got = idx.search(&q, h);
            got.sort_unstable();
            let want: Vec<u64> = (0..8u64)
                .filter(|&o| (o ^ v).count_ones() <= h)
                .collect();
            assert_eq!(got, want, "v={v} h={h}");
        }
    }
}
