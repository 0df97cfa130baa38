//! Figures 7 and 9 — the MapReduce self-join sweep over dataset size:
//! shuffle cost (Fig 7) and running time (Fig 9) for PGBJ, PMH-10,
//! MRHA-Index-A and MRHA-Index-B, per dataset, with the paper's ×s
//! scale-up providing the size axis.
//!
//! Expected shapes (§6.2): PGBJ's shuffle is one to two orders of
//! magnitude above the code-based joins and grows linearly in `n·d`; its
//! runtime grows superlinearly. MRHA beats PMH on both axes. Where this
//! reproduction departs from the paper, `tests/paper_shapes.rs` pins the
//! measured shape and says why.

use std::time::Duration;

use ha_datagen::{generate, scale_up, DatasetProfile};
use ha_distributed::pgbj::{pgbj_self_knn_join, PgbjConfig};
use ha_distributed::pipeline::{mrha_self_join, try_mrha_hamming_join_on_dfs, MrHaConfig};
use ha_distributed::pmh::pmh_hamming_join;
use ha_distributed::JoinOption;
use ha_mapreduce::{DfsConfig, DfsMetrics, FaultInjector, InMemoryDfs, StorageFaultPlan};

use crate::{fmt_bytes, fmt_duration, print_table, Scale};

/// Base tuple count at scale factor ×1 (paper: the original datasets).
const BASE_N: usize = 160;
/// The paper's ×s sweep.
pub const SCALE_FACTORS: [usize; 5] = [5, 10, 15, 20, 25];

/// What one join cost.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Shuffle plus broadcast bytes (Figure 7).
    pub traffic_bytes: usize,
    /// Running time as the join reports it (Figure 9).
    pub time: Duration,
}

/// One ×s column of the sweep.
pub struct Point {
    /// The scale-up factor.
    pub s: usize,
    /// Tuples after scale-up.
    pub n: usize,
    /// PGBJ (exact kNN self-join in vector space).
    pub pgbj: Cost,
    /// PMH-10.
    pub pmh: Cost,
    /// MRHA-Index, Option A.
    pub mrha_a: Cost,
    /// MRHA-Index, Option B.
    pub mrha_b: Cost,
    /// The DFS counters of MRHA-A again, on a DFS with every primary
    /// replica corrupted.
    pub recovery: DfsMetrics,
}

/// One dataset's sweep.
pub struct Fig7_9 {
    /// Dataset profile name.
    pub name: &'static str,
    /// Tuples before scale-up.
    pub base_n: usize,
    /// One point per factor of `factors`.
    pub points: Vec<Point>,
}

/// Sweeps `factors` over `base_n` tuples of `profile` (generator seed
/// `seed`).
pub fn measure(profile: &DatasetProfile, base_n: usize, factors: &[usize], seed: u64) -> Fig7_9 {
    // The stock profiles model a few dozen broad clusters; at join
    // scale that collapses too many tuples onto identical codes and
    // the result-pair count (not the algorithms) dominates the run.
    // Spread the same shape over proportionally more clusters, as the
    // real collections have.
    let profile = DatasetProfile {
        clusters: profile.clusters * 8,
        ..profile.clone()
    };
    let base = generate(&profile, base_n, seed);
    let cfg = MrHaConfig {
        partitions: 8,
        ..MrHaConfig::default()
    };
    let points = factors
        .iter()
        .map(|&s| {
            let data: Vec<(Vec<f64>, u64)> = scale_up(&base, s)
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v, i as u64))
                .collect();
            eprintln!("[fig7/9] {} ×{s}: n = {}", profile.name, data.len());
            let knn = PgbjConfig {
                num_pivots: 8,
                k: 10,
                ..PgbjConfig::default()
            };
            let m = pgbj_self_knn_join(&data, &knn).metrics;
            let pgbj = Cost { traffic_bytes: m.total_traffic_bytes(), time: m.elapsed };
            let o = pmh_hamming_join(&data, &data, 10, &cfg);
            let pmh = Cost { traffic_bytes: o.metrics.total_traffic_bytes(), time: o.times.total() };
            let mrha = |option| {
                let o = mrha_self_join(&data, &MrHaConfig { option, ..cfg.clone() });
                Cost { traffic_bytes: o.metrics.total_traffic_bytes(), time: o.times.total() }
            };
            let (mrha_a, mrha_b) = (mrha(JoinOption::A), mrha(JoinOption::B));
            eprintln!("[fig7/9]   pgbj {pgbj:?}\n[fig7/9]   pmh {pmh:?}");
            eprintln!("[fig7/9]   mrha-a {mrha_a:?}\n[fig7/9]   mrha-b {mrha_b:?}");

            // Storage-recovery accounting: the MRHA-A pipeline again, but
            // with inputs and output on the replicated DFS and the primary
            // replica of EVERY block corrupted — the Figure 7/9 workload
            // doubling as a recovery demonstration. The join result is
            // unaffected (that is the point); the DFS counters show what
            // it cost the storage layer.
            let dfs = InMemoryDfs::with_faults(
                DfsConfig::default(),
                StorageFaultPlan::new().corrupt_primaries_everywhere(),
            );
            let record_bytes = profile.dim * 8 + 8;
            dfs.put_with_blocks("r", data.clone(), 512, record_bytes);
            dfs.put_with_blocks("s", data.clone(), 512, record_bytes);
            try_mrha_hamming_join_on_dfs(&dfs, "r", "s", "out", &cfg, &FaultInjector::none())
                .expect("primary-replica corruption is always recoverable");
            Point { s, n: data.len(), pgbj, pmh, mrha_a, mrha_b, recovery: dfs.metrics() }
        })
        .collect();
    Fig7_9 { name: profile.name, base_n, points }
}

/// Prints one dataset's sweep as Figures 7`panel` and 9`panel` plus the
/// storage-recovery table.
pub fn print(f: &Fig7_9, panel: &str) {
    let headers: Vec<String> = std::iter::once("method".to_string())
        .chain(f.points.iter().map(|p| format!("×{}", p.s)))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let row = |label: &str, cell: &dyn Fn(&Point) -> String| -> Vec<String> {
        std::iter::once(label.to_string()).chain(f.points.iter().map(cell)).collect()
    };
    let costs = |cell: fn(Cost) -> String| {
        vec![
            row("PGBJ", &|p| cell(p.pgbj)),
            row("PMH-10", &|p| cell(p.pmh)),
            row("MRHA-INDEX-A", &|p| cell(p.mrha_a)),
            row("MRHA-INDEX-B", &|p| cell(p.mrha_b)),
        ]
    };
    let (name, base_n) = (f.name, f.base_n);
    print_table(
        &format!("Figure 7{panel}: shuffle cost vs data size on {name} (base n={base_n})"),
        &headers,
        &costs(|c| fmt_bytes(c.traffic_bytes)),
    );
    print_table(
        &format!("Figure 9{panel}: running time vs data size on {name} (base n={base_n})"),
        &headers,
        &costs(|c| fmt_duration(c.time)),
    );
    let recovery_rows = vec![
        row("corrupt blocks detected", &|p| p.recovery.corrupt_blocks_detected.to_string()),
        row("replica failovers", &|p| p.recovery.failovers.to_string()),
        row("re-replications", &|p| p.recovery.re_replications.to_string()),
        row("degraded reads", &|p| p.recovery.degraded_reads.to_string()),
    ];
    print_table(
        &format!("Storage recovery (MRHA-A on DFS, every primary corrupted) on {name}"),
        &headers,
        &recovery_rows,
    );
}

/// Runs the Figures 7 + 9 sweep.
pub fn run(scale: &Scale) {
    for (pi, profile) in DatasetProfile::all().iter().enumerate() {
        let f = measure(profile, scale.n(BASE_N), &SCALE_FACTORS, 7000 + pi as u64);
        print(&f, ["a", "b", "c"][pi]);
    }
}
