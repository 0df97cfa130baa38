//! Empirical checks of the §4.7 analysis: H-Search's node visits track the
//! pruning bound, not the data size, and the leafless index undercuts the
//! raw data it summarizes. (The sublinear growth of the internal node count
//! is part of the paper-shape gate, `tests/paper_shapes.rs`.)

use hamming_suite::index::testkit::clustered_dataset;
use hamming_suite::index::{DhaConfig, DynamicHaIndex};

/// On clustered data, the number of nodes H-Search visits for a selective
/// query must stay far below the tuple count, and grows slowly with n.
#[test]
fn search_visits_scale_sublinearly() {
    let mut visit_rates = Vec::new();
    for n in [2_000usize, 8_000] {
        let data = clustered_dataset(n, 64, 16, 3, 7);
        let idx = DynamicHaIndex::build(data.clone());
        // A near-cluster query with small h.
        let q = data[5].0.clone();
        let (_, steps) = idx.search_trace(&q, 3);
        let visited: usize = steps.iter().map(|s| s.events.len()).sum();
        assert!(
            visited < n / 4,
            "visited {visited} of {n} — pruning not effective"
        );
        visit_rates.push(visited as f64 / n as f64);
    }
    assert!(
        visit_rates[1] <= visit_rates[0] * 1.5,
        "visit rate should not grow with n: {visit_rates:?}"
    );
}

/// The wire-size claim behind the §5.4 shuffle analysis: the leafless
/// index's serialized size is a small fraction of the raw code payload for
/// clustered data.
#[test]
fn leafless_wire_size_small_vs_data() {
    let n = 10_000;
    let data = clustered_dataset(n, 32, 8, 2, 9);
    let leafless = DynamicHaIndex::build_with(
        data.clone(),
        DhaConfig {
            keep_leaf_ids: false,
            ..DhaConfig::default()
        },
    );
    let raw_bytes = n * (2 + 4 + 8); // shipped (code, id) records
    let index_bytes = leafless.serialized_bytes(false);
    // Clustered 32-bit codes collapse to few distinct leaves, so the
    // leafless index must undercut shipping the raw pairs.
    assert!(
        index_bytes < raw_bytes,
        "index {index_bytes}B vs raw {raw_bytes}B"
    );
}
