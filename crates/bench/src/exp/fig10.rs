//! Figure 10 — the effect of the preprocessing sample rate:
//! (a) per-phase wall-clock of the MRHA pipeline, (b) precision/recall of
//! the approximate (hash-based) join against exact vector-space kNN.
//!
//! §6.2.3's observations: more sampling improves pivot quality (better
//! balance → faster build/join) while hash learning itself dominates the
//! preprocessing time; precision/recall "moderately improve" with the
//! sample size, and recall stays low — the intrinsic cost of a 32-bit
//! code.

use std::collections::HashSet;

use ha_datagen::{generate, DatasetProfile};
use ha_distributed::pipeline::{mrha_self_join, MrHaConfig, PhaseTimes};
use ha_knn::exact::exact_knn;

use crate::{fmt_duration, print_table, Scale};

const BASE_N: usize = 3_000;
/// The swept preprocessing sample rates.
pub const SAMPLE_RATES: [f64; 6] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];
const K_TRUTH: usize = 10;

/// One sample rate's column of the sweep.
pub struct Point {
    /// Preprocessing sample rate.
    pub rate: f64,
    /// The pipeline's per-phase wall-clock (Figure 10a).
    pub times: PhaseTimes,
    /// Retrieved pairs touching a probe tuple that are true kNN pairs.
    pub hits: usize,
    /// Retrieved pairs touching a probe tuple.
    pub retrieved: usize,
}

/// The sweep.
pub struct Fig10 {
    /// Tuple count.
    pub n: usize,
    /// Exact kNN pairs of the probe tuples (the recall denominator).
    pub truth: usize,
    /// One point per rate of [`SAMPLE_RATES`].
    pub points: Vec<Point>,
}

/// Measures the sweep over `n` NUS-WIDE tuples, spread over
/// proportionally more clusters — see fig7_9 — so retrieval sets match
/// real-data selectivity.
pub fn measure(n: usize) -> Fig10 {
    let profile = DatasetProfile {
        clusters: DatasetProfile::nuswide().clusters * 16,
        ..DatasetProfile::nuswide()
    };
    let data: Vec<(Vec<f64>, u64)> = generate(&profile, n, 8000)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as u64))
        .collect();

    // Exact vector-space kNN pairs for a sample of probes — the quality
    // reference for Figure 10b.
    let probes: Vec<usize> = (0..n).step_by((n / 50).max(1)).collect();
    let mut truth: HashSet<(u64, u64)> = HashSet::new();
    for &p in &probes {
        let (v, id) = &data[p];
        let rest: Vec<_> = data.iter().filter(|(_, o)| o != id).cloned().collect();
        for nb in exact_knn(&rest, v, K_TRUTH) {
            let (a, b) = if *id < nb.id { (*id, nb.id) } else { (nb.id, *id) };
            truth.insert((a, b));
        }
    }
    let probe_set: HashSet<u64> = probes.iter().map(|&p| p as u64).collect();

    let points = SAMPLE_RATES
        .iter()
        .map(|&rate| {
            let cfg = MrHaConfig {
                partitions: 8,
                sample_rate: rate,
                h: 2,
                ..MrHaConfig::default()
            };
            let outcome = mrha_self_join(&data, &cfg);
            // Figure 10b: restrict retrieved pairs to the probe tuples the
            // truth covers.
            let retrieved: Vec<&(u64, u64)> = outcome
                .pairs
                .iter()
                .filter(|(a, b)| probe_set.contains(a) || probe_set.contains(b))
                .collect();
            let hits = retrieved.iter().filter(|p| truth.contains(p)).count();
            Point { rate, times: outcome.times, hits, retrieved: retrieved.len() }
        })
        .collect();
    Fig10 { n, truth: truth.len(), points }
}

/// Prints Figures 10a and 10b.
pub fn print(f: &Fig10) {
    let time_rows: Vec<Vec<String>> = f
        .points
        .iter()
        .map(|p| {
            let t = &p.times;
            vec![
                format!("{:.2}", p.rate),
                fmt_duration(t.sampling),
                fmt_duration(t.hash_learning),
                fmt_duration(t.index_build),
                fmt_duration(t.join),
                fmt_duration(t.total()),
            ]
        })
        .collect();
    let quality_rows: Vec<Vec<String>> = f
        .points
        .iter()
        .map(|p| {
            let precision = if p.retrieved == 0 { 0.0 } else { p.hits as f64 / p.retrieved as f64 };
            let recall = p.hits as f64 / f.truth as f64;
            vec![format!("{:.2}", p.rate), format!("{precision:.3}"), format!("{recall:.3}")]
        })
        .collect();
    let n = f.n;
    print_table(
        &format!("Figure 10a: per-phase time vs sampling rate (n={n})"),
        &["sample", "sampling", "learn hash", "index build", "join", "total"],
        &time_rows,
    );
    print_table(
        &format!("Figure 10b: precision / recall vs sampling rate (n={n}, vs exact {K_TRUTH}-NN)"),
        &["sample", "precision", "recall"],
        &quality_rows,
    );
}

/// Runs the Figure 10 sweep.
pub fn run(scale: &Scale) {
    print(&measure(scale.n(BASE_N)));
}
