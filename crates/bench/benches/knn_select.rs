//! Criterion benchmark behind Table 5: kNN-select latency for E2LSH, the
//! LSB-Tree forest, and the HA-Index expansion search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ha_bench::hashed_dataset;
use ha_core::{DynamicHaIndex, TupleId};
use ha_datagen::DatasetProfile;
use ha_knn::{knn_select, E2Lsh, LsbTree};

const N: usize = 10_000;
const K: usize = 50;

fn bench_knn(c: &mut Criterion) {
    let ds = hashed_dataset(&DatasetProfile::nuswide(), N, 32, 9);
    let query_vecs: Vec<Vec<f64>> = ds
        .vectors
        .iter()
        .step_by(N / 32)
        .map(|(v, _)| v.clone())
        .collect();

    let mut group = c.benchmark_group("knn_select_k50");
    group.sample_size(10);

    let lsh = E2Lsh::build_default(ds.vectors.clone(), 1);
    let mut qi = 0usize;
    group.bench_function(BenchmarkId::from_parameter("e2lsh-20"), |b| {
        b.iter(|| {
            qi += 1;
            std::hint::black_box(lsh.knn(&query_vecs[qi % query_vecs.len()], K))
        })
    });

    let lsb = LsbTree::build(ds.vectors.clone(), 25, 2);
    let mut qi = 0usize;
    group.bench_function(BenchmarkId::from_parameter("lsb-tree-25"), |b| {
        b.iter(|| {
            qi += 1;
            std::hint::black_box(lsb.knn(&query_vecs[qi % query_vecs.len()], K))
        })
    });

    let dha = DynamicHaIndex::build(ds.codes.clone());
    let codes = ds.codes.clone();
    let resolve = move |id: TupleId| codes[id as usize].0.clone();
    let query_codes: Vec<_> = query_vecs
        .iter()
        .map(|v| {
            use ha_hashing::SimilarityHasher;
            ds.hasher.hash(v)
        })
        .collect();
    let mut qi = 0usize;
    group.bench_function(BenchmarkId::from_parameter("dha-32"), |b| {
        b.iter(|| {
            qi += 1;
            let q = &query_codes[qi % query_codes.len()];
            std::hint::black_box(knn_select(&dha, &resolve, q, K))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_knn
}
criterion_main!(benches);
