//! Table 3 — the H-Search execution trace on the running example.
//!
//! Builds the Dynamic HA-Index over Table 2a (window 2, as in Figure 3)
//! and traces the search for `tq = 010001011`, `h = 3`, printing one row
//! per BFS round: the queue contents and the qualified tuples — the
//! columns of Table 3. The paper's final row reports exactly `{t0}`.

use ha_core::dynamic::{DhaConfig, DynamicHaIndex, TraceStep};
use ha_core::testkit::paper_table_s;
use ha_core::TupleId;

use crate::print_table;

/// The traced search: its result and one step per BFS round.
pub struct Table3 {
    /// Qualifying tuple ids (the paper: exactly `{t0}`).
    pub result: Vec<TupleId>,
    /// One row of Table 3 per BFS round.
    pub steps: Vec<TraceStep>,
}

/// Builds the running example and traces the search.
pub fn measure() -> Table3 {
    let idx = DynamicHaIndex::build_with(
        paper_table_s(),
        DhaConfig {
            window: 2,
            max_depth: 4,
            ..DhaConfig::default()
        },
    );
    let query: ha_bitcode::BinaryCode = "010001011".parse().expect("valid code");
    let (result, steps) = idx.search_trace(&query, 3);
    Table3 { result, steps }
}

/// Prints Table 3.
pub fn print(t: &Table3) {
    let tuples = |ids: &[TupleId]| {
        if ids.is_empty() {
            "∅".to_string()
        } else {
            ids.iter().map(|id| format!("t{id}")).collect::<Vec<_>>().join(", ")
        }
    };
    let rows: Vec<Vec<String>> = t
        .steps
        .iter()
        .map(|s| {
            let queue = if s.queue_after.is_empty() {
                "∅".to_string()
            } else {
                s.queue_after.join(", ")
            };
            vec![queue, tuples(&s.results_so_far)]
        })
        .collect();
    print_table(
        "Table 3: H-Search trace (tq=010001011, h=3)",
        &["Queue", "Qualified tuples ret"],
        &rows,
    );
    println!("  final result: {{{}}} (paper: {{t0}})", tuples(&t.result));
}

/// Runs the Table 3 reproduction.
pub fn run() {
    print(&measure());
}
