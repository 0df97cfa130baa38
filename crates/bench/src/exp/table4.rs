//! Table 4 — the overall Hamming-select comparison: per method and
//! dataset, the mean query time, the update time (delete one tuple, insert
//! it back), and the memory footprint. 32-bit codes, h = 3, as in §6.1.1.

use std::time::Duration;

use ha_bitcode::BinaryCode;
use ha_core::{
    DhaConfig, DynamicHaIndex, HammingIndex, LinearScanIndex, MutableIndex, RadixTreeIndex,
    SegmentIndex, SegmentScheme, StaticHaIndex, TupleId,
};
use ha_datagen::DatasetProfile;

use crate::{fmt_bytes, fmt_duration, hashed_dataset, print_table, query_workload, time_per_call, Scale};

/// Base tuple count per dataset at `HA_SCALE=1` (paper: 270k–1M).
const BASE_N: usize = 50_000;
const H: u32 = 3;
const CODE_LEN: usize = 32;

/// Object-safe union of the two traits the experiment needs.
trait IndexUnderTest {
    fn search(&self, q: &BinaryCode, h: u32) -> Vec<TupleId>;
    fn update(&mut self, code: &BinaryCode, id: TupleId);
    fn memory(&self) -> usize;
}

impl<T: HammingIndex + MutableIndex> IndexUnderTest for T {
    fn search(&self, q: &BinaryCode, h: u32) -> Vec<TupleId> {
        HammingIndex::search(self, q, h)
    }
    fn update(&mut self, code: &BinaryCode, id: TupleId) {
        // Table 4's update = delete the tuple, then insert it back.
        assert!(self.delete(code, id), "update target must exist");
        self.insert(code.clone(), id);
    }
    fn memory(&self) -> usize {
        self.memory_bytes()
    }
}

fn build_methods(codes: &[(BinaryCode, TupleId)]) -> Vec<(&'static str, Box<dyn IndexUnderTest>)> {
    let c = || codes.to_vec();
    let segments = |scheme, t| Box::new(SegmentIndex::build(scheme, CODE_LEN, t, c()));
    vec![
        ("Nested-Loops", Box::new(LinearScanIndex::build(c()))),
        ("MH-4", segments(SegmentScheme::Manku, 4)),
        ("MH-10", segments(SegmentScheme::Manku, 10)),
        ("HEngine", segments(SegmentScheme::HEngine, 2)),
        ("HmSearch", segments(SegmentScheme::HmSearch, 2)),
        ("Radix-Tree", Box::new(RadixTreeIndex::build(c()))),
        ("SHA-Index", Box::new(StaticHaIndex::build(c()))),
        ("DHA-Index", Box::new(DynamicHaIndex::build(c()))),
    ]
}

/// One method's row of a Table 4 panel.
pub struct Row {
    /// The paper's method label (`"MH-10"`, `"DHA-Index"`, …).
    pub label: &'static str,
    /// Mean wall-clock per query.
    pub query_time: Duration,
    /// Mean wall-clock per update (delete + reinsert).
    pub update_time: Duration,
    /// `memory_bytes()` after the updates.
    pub memory_bytes: usize,
}

/// One panel of Table 4 (one dataset).
pub struct Table4 {
    /// Dataset profile name.
    pub name: &'static str,
    /// Tuple count.
    pub n: usize,
    /// One row per method, in the paper's order.
    pub rows: Vec<Row>,
    /// `memory_bytes()` of the leafless DHA-Index over the same codes
    /// (Table 4's "28/11" split).
    pub leafless_dha_bytes: usize,
}

impl Table4 {
    /// The row labelled `label`.
    pub fn row(&self, label: &str) -> &Row {
        self.rows.iter().find(|r| r.label == label).expect("known method label")
    }
}

/// Measures one panel: `n` tuples of `profile` hashed to 32 bits (dataset
/// seed `seed`), `queries` timed queries, 50 timed updates.
pub fn measure(profile: &DatasetProfile, n: usize, queries: usize, seed: u64) -> Table4 {
    let ds = hashed_dataset(profile, n, CODE_LEN, seed);
    let queries = query_workload(&ds.codes, queries, seed + 1000);
    let rows = build_methods(&ds.codes)
        .into_iter()
        .map(|(label, mut index)| {
            let mut qi = 0usize;
            let query_time = time_per_call(queries.len(), || {
                std::hint::black_box(index.search(&queries[qi % queries.len()], H));
                qi += 1;
            });
            // Update time: delete + reinsert rotating tuples.
            let mut ui = 0usize;
            let update_time = time_per_call(50.min(ds.codes.len()), || {
                let (code, id) = &ds.codes[(ui * 37) % ds.codes.len()];
                index.update(code, *id);
                ui += 1;
            });
            Row { label, query_time, update_time, memory_bytes: index.memory() }
        })
        .collect();
    let leafless = DynamicHaIndex::build_with(
        ds.codes,
        DhaConfig {
            keep_leaf_ids: false,
            ..DhaConfig::default()
        },
    );
    Table4 { name: ds.name, n, rows, leafless_dha_bytes: leafless.memory_bytes() }
}

/// Prints one panel as Table 4`panel` (`"a"`, `"b"`, `"c"`).
pub fn print(t: &Table4, panel: &str) {
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            let memory = if r.label == "DHA-Index" {
                format!("{} / {}", fmt_bytes(r.memory_bytes), fmt_bytes(t.leafless_dha_bytes))
            } else {
                fmt_bytes(r.memory_bytes)
            };
            vec![r.label.to_string(), fmt_duration(r.query_time), fmt_duration(r.update_time), memory]
        })
        .collect();
    print_table(
        &format!(
            "Table 4{panel}: Hamming-select on {} (n={}, L={CODE_LEN}, h={H})",
            t.name, t.n
        ),
        &["method", "query time", "update time", "space usage"],
        &rows,
    );
}

/// Runs Table 4 over the three dataset profiles.
pub fn run(scale: &Scale) {
    for (pi, profile) in DatasetProfile::all().iter().enumerate() {
        let t = measure(profile, scale.n(BASE_N), scale.queries, 1000 + pi as u64);
        print(&t, ["a", "b", "c"][pi]);
    }
}
