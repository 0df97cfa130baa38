//! Figure 8 — DHA-Index parameter study: build time (a) and query time (b)
//! as functions of the H-Build window length (normalized by the tuple
//! count, as in the paper's x-axis) and the index depth.
//!
//! Expected shapes (§6.1.3): build time grows with window size and with
//! depth; query time grows gently — "the window size increases four times
//! and the query processing time only grows by less than 10%".

use std::time::Duration;

use ha_core::dynamic::{DhaConfig, DynamicHaIndex};
use ha_core::HammingIndex;
use ha_datagen::DatasetProfile;

use crate::{fmt_duration, hashed_dataset, print_table, query_workload, time, time_per_call, Scale};

const BASE_N: usize = 20_000;
const CODE_LEN: usize = 32;
/// The paper's normalized window lengths.
pub const WINDOW_FRACTIONS: [f64; 5] = [0.005, 0.01, 0.02, 0.03, 0.04];
/// The swept maximum depths.
pub const DEPTHS: [usize; 4] = [4, 5, 6, 7];

/// The sweep: one row per depth of [`DEPTHS`], one cell per window
/// fraction of [`WINDOW_FRACTIONS`].
pub struct Fig8 {
    /// Tuple count.
    pub n: usize,
    /// H-Build wall-clock (Figure 8a).
    pub build: Vec<Vec<Duration>>,
    /// Mean query time at h = 3 (Figure 8b).
    pub query: Vec<Vec<Duration>>,
}

/// Measures the sweep over `n` NUS-WIDE tuples with `queries` queries.
pub fn measure(n: usize, queries: usize) -> Fig8 {
    let ds = hashed_dataset(&DatasetProfile::nuswide(), n, CODE_LEN, 5000);
    let queries = query_workload(&ds.codes, queries, 5001);
    let (mut build, mut query) = (Vec::new(), Vec::new());
    for &depth in &DEPTHS {
        let (mut build_row, mut query_row) = (Vec::new(), Vec::new());
        for &frac in &WINDOW_FRACTIONS {
            let window = ((n as f64 * frac) as usize).max(2);
            let cfg = DhaConfig {
                window,
                max_depth: depth,
                ..DhaConfig::default()
            };
            let (idx, build_time) = time(|| DynamicHaIndex::build_with(ds.codes.clone(), cfg));
            let mut qi = 0usize;
            let qt = time_per_call(queries.len(), || {
                std::hint::black_box(idx.search(&queries[qi % queries.len()], 3));
                qi += 1;
            });
            build_row.push(build_time);
            query_row.push(qt);
        }
        build.push(build_row);
        query.push(query_row);
    }
    Fig8 { n, build, query }
}

/// Prints Figures 8a and 8b.
pub fn print(f: &Fig8) {
    let headers: Vec<String> = std::iter::once("".to_string())
        .chain(WINDOW_FRACTIONS.iter().map(|f| format!("w={f}·n")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows = |times: &[Vec<Duration>]| -> Vec<Vec<String>> {
        DEPTHS
            .iter()
            .zip(times)
            .map(|(depth, row)| {
                std::iter::once(format!("depth={depth}"))
                    .chain(row.iter().map(|&t| fmt_duration(t)))
                    .collect()
            })
            .collect()
    };
    let n = f.n;
    print_table(&format!("Figure 8a: DHA-Index building time (n={n})"), &headers, &rows(&f.build));
    print_table(&format!("Figure 8b: DHA-Index query time (n={n})"), &headers, &rows(&f.query));
}

/// Runs the Figure 8 sweep (on the NUS-WIDE profile).
pub fn run(scale: &Scale) {
    print(&measure(scale.n(BASE_N), scale.queries.min(50)));
}
