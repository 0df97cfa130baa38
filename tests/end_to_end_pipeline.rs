//! End-to-end: feature vectors → learned hash → codes → index → queries,
//! spanning ha-datagen, ha-hashing, ha-core and ha-knn exactly as an
//! application would use them.

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::datagen::{generate_with_labels, reservoir_sample, scale_up, DatasetProfile};
use hamming_suite::hashing::{SimHasher, SimilarityHasher, SpectralHasher};
use hamming_suite::index::select::self_join;
use hamming_suite::index::{DynamicHaIndex, HammingIndex};
use hamming_suite::knn::{exact_knn, knn_select, precision_recall};

#[test]
fn hash_preserves_cluster_structure_through_the_index() {
    // Clustered vectors; same-cluster tuples must dominate small-radius
    // Hamming balls after hashing.
    let profile = DatasetProfile::tiny(24, 5);
    let (vectors, labels) = generate_with_labels(&profile, 800, 50);
    let sample: Vec<Vec<f64>> = reservoir_sample(vectors.iter().cloned(), 200, 51);
    let hasher = SpectralHasher::fit_vectors(&sample, 32, 32);
    let codes: Vec<(BinaryCode, u64)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (hasher.hash(v), i as u64))
        .collect();
    let index = DynamicHaIndex::build(codes.clone());
    index.check_invariants();

    let mut same = 0usize;
    let mut total = 0usize;
    for probe in (0..800).step_by(37) {
        for id in index.search(&codes[probe].0, 3) {
            if id as usize != probe {
                total += 1;
                if labels[id as usize] == labels[probe] {
                    same += 1;
                }
            }
        }
    }
    assert!(total > 0, "clusters must produce near neighbours");
    let purity = same as f64 / total as f64;
    assert!(purity > 0.9, "Hamming ball purity {purity}");
}

#[test]
fn knn_through_hash_recovers_true_neighbours() {
    let profile = DatasetProfile::tiny(16, 6);
    let (vectors, _) = generate_with_labels(&profile, 600, 52);
    let data: Vec<(Vec<f64>, u64)> = vectors
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as u64))
        .collect();
    let hasher = SpectralHasher::fit_vectors(
        &data.iter().map(|(v, _)| v.clone()).collect::<Vec<_>>(),
        64,
        64,
    );
    let codes: Vec<(BinaryCode, u64)> = data
        .iter()
        .map(|(v, id)| (hasher.hash(v), *id))
        .collect();
    let index = DynamicHaIndex::build(codes.clone());
    let resolve = |id: u64| codes[id as usize].0.clone();

    let mut recall_sum = 0.0;
    let queries = 20;
    for qi in 0..queries {
        let (v, id) = &data[qi * 29];
        let truth: Vec<u64> = exact_knn(&data, v, 11)
            .into_iter()
            .map(|n| n.id)
            .filter(|i| i != id)
            .take(10)
            .collect();
        let got: Vec<u64> = knn_select(&index, resolve, &hasher.hash(v), 40)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        recall_sum += precision_recall(&got, &truth).1;
    }
    let recall = recall_sum / queries as f64;
    assert!(recall > 0.5, "mean hash-kNN recall {recall}");
}

#[test]
fn simhash_dedup_pipeline() {
    // SimHash + self-join near-duplicate detection (the §1 application).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(53);
    let dim = 64;
    let mut docs: Vec<Vec<f64>> = (0..500)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    // 40 near-duplicates.
    for i in 0..40 {
        let src: Vec<f64> = docs[i * 7].iter().map(|x| x + 0.003).collect();
        docs.push(src);
    }
    let hasher = SimHasher::new(64, dim, 54);
    let codes: Vec<(BinaryCode, u64)> = docs
        .iter()
        .enumerate()
        .map(|(i, v)| (hasher.hash(v), i as u64))
        .collect();
    let index = DynamicHaIndex::build(codes.clone());
    let pairs = self_join(&index, &codes, 2);
    // Every injected duplicate is found…
    for i in 0..40u64 {
        let dup = 500 + i;
        let src = i * 7;
        assert!(
            pairs.contains(&(src, dup)),
            "duplicate pair ({src},{dup}) missed"
        );
    }
    // …and false positives are rare.
    assert!(pairs.len() < 60, "{} pairs, expected ≈40", pairs.len());
}

#[test]
fn scaleup_preserves_query_semantics() {
    // The ×s data keeps the marginals, so hashed codes of scaled data stay
    // inside the learned hasher's domain and the index stays exact.
    let profile = DatasetProfile::tiny(12, 3);
    let (vectors, _) = generate_with_labels(&profile, 150, 55);
    let scaled = scale_up(&vectors, 4);
    assert_eq!(scaled.len(), 600);
    let hasher = SpectralHasher::fit_vectors(&vectors, 32, 32);
    let codes: Vec<(BinaryCode, u64)> = scaled
        .iter()
        .enumerate()
        .map(|(i, v)| (hasher.hash(v), i as u64))
        .collect();
    let index = DynamicHaIndex::build(codes.clone());
    index.check_invariants();
    assert_eq!(index.len(), 600);
    // Oracle equivalence on the scaled set.
    let q = codes[123].0.clone();
    let mut got = index.search(&q, 4);
    got.sort_unstable();
    let want: Vec<u64> = codes
        .iter()
        .filter(|(c, _)| c.hamming(&q) <= 4)
        .map(|&(_, id)| id)
        .collect();
    assert_eq!(got, want);
}
