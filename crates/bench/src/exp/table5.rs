//! Table 5 — kNN-select against the state of the art: E2LSH (20 tables),
//! the LSB-Tree forest (25 trees), and the HA-Indexes at 32 and 64 bits.
//! Reports query time and index build time; k = 50, 300k tuples in the
//! paper (base 20k here, ×`HA_SCALE`).

use ha_core::{DynamicHaIndex, StaticHaIndex, TupleId};
use ha_datagen::DatasetProfile;
use ha_knn::{knn_select, E2Lsh, LsbTree};

use crate::{fmt_duration, hashed_dataset, print_table, time, time_per_call, Scale};

const BASE_N: usize = 20_000;
const K: usize = 50;

/// Runs the Table 5 comparison over the three dataset profiles.
pub fn run(scale: &Scale) {
    let n = scale.n(BASE_N);
    let reps = scale.queries.min(30);
    for (pi, profile) in DatasetProfile::all().iter().enumerate() {
        let mut rows = Vec::new();

        // Vector-space baselines share one dataset realization.
        let ds32 = hashed_dataset(profile, n, 32, 6000 + pi as u64);
        let queries_v: Vec<Vec<f64>> = ds32
            .vectors
            .iter()
            .step_by((n / reps).max(1))
            .map(|(v, _)| v.clone())
            .take(reps)
            .collect();

        // E2LSH, 20 tables.
        let (lsh, lsh_build) = time(|| E2Lsh::build_default(ds32.vectors.clone(), 1));
        let mut qi = 0usize;
        let lsh_q = time_per_call(queries_v.len(), || {
            std::hint::black_box(lsh.knn(&queries_v[qi % queries_v.len()], K));
            qi += 1;
        });
        rows.push(vec![
            "LSH".into(),
            fmt_duration(lsh_q),
            fmt_duration(lsh_build),
        ]);

        // LSB-Tree, 25 trees.
        let (lsb, lsb_build) = time(|| LsbTree::build(ds32.vectors.clone(), 25, 2));
        let mut qi = 0usize;
        let lsb_q = time_per_call(queries_v.len(), || {
            std::hint::black_box(lsb.knn(&queries_v[qi % queries_v.len()], K));
            qi += 1;
        });
        rows.push(vec![
            "LSB-Tree(25)".into(),
            fmt_duration(lsb_q),
            fmt_duration(lsb_build),
        ]);

        // HA-Index variants at 32 and 64 bits.
        for code_len in [32usize, 64] {
            // 64-bit codes need their own hash; the same seed keeps the
            // underlying vectors identical.
            let ds64;
            let ds = if code_len == 32 {
                &ds32
            } else {
                ds64 = hashed_dataset(profile, n, 64, 6000 + pi as u64);
                &ds64
            };
            let resolve = {
                let codes = ds.codes.clone();
                move |id: TupleId| codes[id as usize].0.clone()
            };
            let query_codes: Vec<_> = queries_v
                .iter()
                .map(|v| {
                    use ha_hashing::SimilarityHasher;
                    ds.hasher.hash(v)
                })
                .collect();

            let (sha, sha_build) = time(|| StaticHaIndex::build(ds.codes.clone()));
            let mut qi = 0usize;
            let sha_q = time_per_call(query_codes.len(), || {
                let q = &query_codes[qi % query_codes.len()];
                std::hint::black_box(knn_select(&sha, &resolve, q, K));
                qi += 1;
            });
            rows.push(vec![
                format!("SHA-Index({code_len})"),
                fmt_duration(sha_q),
                fmt_duration(sha_build),
            ]);

            let (dha, dha_build) = time(|| DynamicHaIndex::build(ds.codes.clone()));
            let mut qi = 0usize;
            let dha_q = time_per_call(query_codes.len(), || {
                let q = &query_codes[qi % query_codes.len()];
                std::hint::black_box(knn_select(&dha, &resolve, q, K));
                qi += 1;
            });
            rows.push(vec![
                format!("DHA-Index({code_len})"),
                fmt_duration(dha_q),
                fmt_duration(dha_build),
            ]);
        }

        print_table(
            &format!("Table 5 ({}): kNN-select, k={K}, n={n}", profile.name),
            &["algorithm", "query time", "index build time"],
            &rows,
        );
    }
}
