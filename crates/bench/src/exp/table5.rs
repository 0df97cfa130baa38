//! Table 5 — kNN-select against the state of the art: E2LSH (20 tables),
//! the LSB-Tree forest (25 trees), and the HA-Indexes at 32 and 64 bits.
//! Reports query time and index build time; k = 50, 300k tuples in the
//! paper (base 20k here, ×`HA_SCALE`).

use std::time::Duration;

use ha_core::{DynamicHaIndex, StaticHaIndex, TupleId};
use ha_datagen::DatasetProfile;
use ha_knn::{knn_select, E2Lsh, LsbTree};

use crate::{fmt_duration, hashed_dataset, print_table, time, time_per_call, Scale};

const BASE_N: usize = 20_000;
const K: usize = 50;

/// One algorithm's row of a Table 5 panel.
pub struct Row {
    /// Algorithm label.
    pub label: String,
    /// Mean wall-clock per kNN query.
    pub query_time: Duration,
    /// Index build wall-clock.
    pub build_time: Duration,
}

/// One panel of Table 5 (one dataset).
pub struct Table5 {
    /// Dataset profile name.
    pub name: &'static str,
    /// Tuple count.
    pub n: usize,
    /// LSH, LSB-Tree, then the HA-Indexes at 32 and 64 bits.
    pub rows: Vec<Row>,
}

/// Mean wall-clock of `f` over `queries`.
fn per_query<Q, R>(queries: &[Q], f: impl Fn(&Q) -> R) -> Duration {
    let mut qi = 0usize;
    time_per_call(queries.len(), || {
        std::hint::black_box(f(&queries[qi % queries.len()]));
        qi += 1;
    })
}

/// Measures one panel: `n` tuples of `profile` (dataset seed `seed`),
/// `reps` timed queries per algorithm.
pub fn measure(profile: &DatasetProfile, n: usize, reps: usize, seed: u64) -> Table5 {
    let mut rows = Vec::new();
    let mut push = |label: String, build_time: Duration, query_time: Duration| {
        rows.push(Row { label, query_time, build_time })
    };

    // Vector-space baselines share one dataset realization.
    let ds32 = hashed_dataset(profile, n, 32, seed);
    let queries_v: Vec<Vec<f64>> = ds32
        .vectors
        .iter()
        .step_by((n / reps).max(1))
        .map(|(v, _)| v.clone())
        .take(reps)
        .collect();

    // E2LSH, 20 tables.
    let (lsh, lsh_build) = time(|| E2Lsh::build_default(ds32.vectors.clone(), 1));
    push("LSH".into(), lsh_build, per_query(&queries_v, |q| lsh.knn(q, K)));

    // LSB-Tree, 25 trees.
    let (lsb, lsb_build) = time(|| LsbTree::build(ds32.vectors.clone(), 25, 2));
    push("LSB-Tree(25)".into(), lsb_build, per_query(&queries_v, |q| lsb.knn(q, K)));

    // HA-Index variants at 32 and 64 bits.
    for code_len in [32usize, 64] {
        // 64-bit codes need their own hash; the same seed keeps the
        // underlying vectors identical.
        let ds64;
        let ds = if code_len == 32 {
            &ds32
        } else {
            ds64 = hashed_dataset(profile, n, 64, seed);
            &ds64
        };
        let resolve = |id: TupleId| ds.codes[id as usize].0.clone();
        let query_codes: Vec<_> = queries_v
            .iter()
            .map(|v| {
                use ha_hashing::SimilarityHasher;
                ds.hasher.hash(v)
            })
            .collect();

        let (sha, sha_build) = time(|| StaticHaIndex::build(ds.codes.clone()));
        let sha_q = per_query(&query_codes, |q| knn_select(&sha, resolve, q, K));
        push(format!("SHA-Index({code_len})"), sha_build, sha_q);

        let (dha, dha_build) = time(|| DynamicHaIndex::build(ds.codes.clone()));
        let dha_q = per_query(&query_codes, |q| knn_select(&dha, resolve, q, K));
        push(format!("DHA-Index({code_len})"), dha_build, dha_q);
    }
    Table5 { name: profile.name, n, rows }
}

/// Prints one panel of Table 5.
pub fn print(t: &Table5) {
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| vec![r.label.clone(), fmt_duration(r.query_time), fmt_duration(r.build_time)])
        .collect();
    print_table(
        &format!("Table 5 ({}): kNN-select, k={K}, n={}", t.name, t.n),
        &["algorithm", "query time", "index build time"],
        &rows,
    );
}

/// Runs the Table 5 comparison over the three dataset profiles.
pub fn run(scale: &Scale) {
    for (pi, profile) in DatasetProfile::all().iter().enumerate() {
        print(&measure(profile, scale.n(BASE_N), scale.queries.min(30), 6000 + pi as u64));
    }
}
