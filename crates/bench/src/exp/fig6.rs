//! Figure 6 — effect of the Hamming-distance threshold on Hamming-select
//! query time (a/b/c: one panel per dataset). The paper's observation:
//! the HA-Index curves grow slowly with `h`; the Radix-Tree sits in
//! between. MH and HEngine are sized for the largest `h` of the sweep, so
//! each query probes the same buckets at every `h`: their curves stay flat
//! but far above the HA-Indexes, the price of that fixed sizing.

use std::time::Duration;

use ha_bitcode::BinaryCode;
use ha_core::{
    DynamicHaIndex, HammingIndex, RadixTreeIndex, SegmentIndex, SegmentScheme, StaticHaIndex,
    TupleId,
};
use ha_datagen::DatasetProfile;

use crate::{fmt_duration, hashed_dataset, print_table, query_workload, time_per_call, Scale};

const BASE_N: usize = 30_000;
const CODE_LEN: usize = 32;
/// The swept Hamming thresholds.
pub const THRESHOLDS: [u32; 6] = [1, 2, 3, 4, 5, 6];

/// One dataset's panel: per method, the mean query time at each
/// threshold of [`THRESHOLDS`].
pub struct Fig6 {
    /// Dataset profile name.
    pub name: &'static str,
    /// Tuple count.
    pub n: usize,
    /// `(method label, one mean query time per threshold)`.
    pub rows: Vec<(&'static str, Vec<Duration>)>,
}

/// Measures one panel: `n` tuples of `profile` (dataset seed `seed`),
/// `queries` queries per threshold.
pub fn measure(profile: &DatasetProfile, n: usize, queries: usize, seed: u64) -> Fig6 {
    let ds = hashed_dataset(profile, n, CODE_LEN, seed);
    let queries = query_workload(&ds.codes, queries, seed + 1000);

    // Pigeonhole structures are sized for the largest h of the sweep
    // so the comparison stays complete everywhere.
    type SearchFn = Box<dyn Fn(&BinaryCode, u32) -> Vec<TupleId>>;
    let methods: Vec<(&'static str, SearchFn)> = {
        let mh = SegmentIndex::build(
            SegmentScheme::Manku,
            CODE_LEN,
            THRESHOLDS.len() + 1,
            ds.codes.clone(),
        );
        // Four segments make HEngine complete to h = 7.
        let he = SegmentIndex::build(SegmentScheme::HEngine, CODE_LEN, 4, ds.codes.clone());
        let radix = RadixTreeIndex::build(ds.codes.clone());
        let sha = StaticHaIndex::build(ds.codes.clone());
        let dha = DynamicHaIndex::build(ds.codes.clone());
        vec![
            ("MH-7", Box::new(move |q: &BinaryCode, h: u32| mh.search(q, h)) as _),
            ("HEngine", Box::new(move |q: &BinaryCode, h: u32| he.search(q, h)) as _),
            ("Radix-Tree", Box::new(move |q: &BinaryCode, h: u32| radix.search(q, h)) as _),
            ("SHA-Index", Box::new(move |q: &BinaryCode, h: u32| sha.search(q, h)) as _),
            ("DHA-Index", Box::new(move |q: &BinaryCode, h: u32| dha.search(q, h)) as _),
        ]
    };
    let rows = methods
        .iter()
        .map(|(label, search)| {
            let times = THRESHOLDS
                .iter()
                .map(|&h| {
                    let mut qi = 0usize;
                    time_per_call(queries.len(), || {
                        std::hint::black_box(search(&queries[qi % queries.len()], h));
                        qi += 1;
                    })
                })
                .collect();
            (*label, times)
        })
        .collect();
    Fig6 { name: ds.name, n, rows }
}

/// Prints one panel as Figure 6`panel`.
pub fn print(f: &Fig6, panel: &str) {
    let headers: Vec<String> = std::iter::once("method".to_string())
        .chain(THRESHOLDS.iter().map(|h| format!("h={h}")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|(label, times)| {
            std::iter::once(label.to_string()).chain(times.iter().map(|&t| fmt_duration(t))).collect()
        })
        .collect();
    print_table(
        &format!("Figure 6{panel}: query time vs threshold on {} (n={})", f.name, f.n),
        &headers,
        &rows,
    );
}

/// Runs the Figure 6 sweep.
pub fn run(scale: &Scale) {
    for (pi, profile) in DatasetProfile::all().iter().enumerate() {
        let f = measure(profile, scale.n(BASE_N), scale.queries.min(50), 3000 + pi as u64);
        print(&f, ["a", "b", "c"][pi]);
    }
}
