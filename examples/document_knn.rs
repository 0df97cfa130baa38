//! Approximate kNN document search (§2, §6.1.4): DBPedia-shaped topic
//! vectors, three engines answering the same query —
//!
//! * exact linear scan (ground truth),
//! * E2LSH (20 tables),
//! * Hamming kNN over the DHA-Index with threshold expansion —
//!
//! with per-engine latency and recall against the exact answer.
//!
//! ```text
//! cargo run --release --example document_knn
//! ```

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::datagen::{generate, DatasetProfile};
use hamming_suite::hashing::{SimilarityHasher, SpectralHasher};
use hamming_suite::index::DynamicHaIndex;
use hamming_suite::knn::{exact_knn, knn_select, precision_recall, E2Lsh};

const N: usize = 20_000;
const K: usize = 10;
const QUERIES: usize = 25;

fn main() {
    // "Documents": LDA-topic-shaped vectors (250-d, skewed clusters).
    let profile = DatasetProfile::dbpedia();
    let docs: Vec<(Vec<f64>, u64)> = generate(&profile, N, 123)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as u64))
        .collect();
    println!("corpus: {N} documents × {} topics", profile.dim);

    // Learn the hash, encode the corpus, build the HA-Index.
    let sample: Vec<Vec<f64>> = docs.iter().step_by(11).map(|(v, _)| v.clone()).collect();
    let hasher = SpectralHasher::fit_vectors(&sample, 64, 64);
    let codes: Vec<(BinaryCode, u64)> = docs
        .iter()
        .map(|(v, id)| (hasher.hash(v), *id))
        .collect();
    let dha = DynamicHaIndex::build(codes.clone());
    let lsh = E2Lsh::build_default(docs.clone(), 5);

    let queries: Vec<&(Vec<f64>, u64)> = docs.iter().step_by(N / QUERIES).take(QUERIES).collect();

    // Exact ground truth + timing.
    let t = std::time::Instant::now();
    let truth: Vec<Vec<u64>> = queries
        .iter()
        .map(|(v, _)| exact_knn(&docs, v, K).iter().map(|n| n.id).collect())
        .collect();
    let exact_time = t.elapsed() / QUERIES as u32;

    // E2LSH.
    let t = std::time::Instant::now();
    let lsh_results: Vec<Vec<u64>> = queries
        .iter()
        .map(|(v, _)| lsh.knn(v, K).iter().map(|n| n.id).collect())
        .collect();
    let lsh_time = t.elapsed() / QUERIES as u32;

    // Hamming kNN over the DHA-Index — the standard two-stage pipeline:
    // a cheap Hamming filter gathers CANDIDATES × K candidates, then the
    // true distance reranks them (the paper's §2 recipe: the Hamming range
    // query is the core, ranking retains the k closest).
    const CANDIDATES: usize = 30;
    let resolve = |id: u64| codes[id as usize].0.clone();
    let t = std::time::Instant::now();
    let dha_results: Vec<Vec<u64>> = queries
        .iter()
        .map(|(v, _)| {
            let coarse = knn_select(&dha, resolve, &hasher.hash(v), CANDIDATES * K);
            let mut reranked: Vec<(f64, u64)> = coarse
                .into_iter()
                .map(|(id, _)| {
                    let dv = &docs[id as usize].0;
                    let d: f64 = dv.iter().zip(v).map(|(a, b)| (a - b) * (a - b)).sum();
                    (d, id)
                })
                .collect();
            reranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            reranked.into_iter().take(K).map(|(_, id)| id).collect()
        })
        .collect();
    let dha_time = t.elapsed() / QUERIES as u32;

    let mean_recall = |results: &[Vec<u64>]| -> f64 {
        results
            .iter()
            .zip(&truth)
            .map(|(got, want)| precision_recall(got, want).1)
            .sum::<f64>()
            / QUERIES as f64
    };

    println!("\n{:<18} {:>12} {:>8}", "engine", "latency", "recall");
    println!("{:<18} {:>12?} {:>8}", "exact scan", exact_time, "1.000");
    println!(
        "{:<18} {:>12?} {:>8.3}",
        "e2lsh-20",
        lsh_time,
        mean_recall(&lsh_results)
    );
    println!(
        "{:<18} {:>12?} {:>8.3}",
        "dha-index(64)",
        dha_time,
        mean_recall(&dha_results)
    );

    assert!(
        dha_time < exact_time,
        "indexed kNN should beat the exact scan"
    );
}
