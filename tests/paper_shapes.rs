//! The paper-shape gate: the regenerators of `ha-bench` (the same
//! `measure` functions `experiments` prints) run at sizes that finish in
//! seconds, and the shapes the paper reports are asserted on their exact
//! counts — bytes, node counts, result sets — never on wall-clock time.
//!
//! Two measured departures from the paper are pinned as they are (see
//! `mrha_join_traffic_shapes`); a change that moves either must say why
//! here and in EXPERIMENTS.md.

use ha_bench::exp::{fig7_9, table3, table4};
use hamming_suite::bitcode::BinaryCode;
use hamming_suite::datagen::DatasetProfile;
use hamming_suite::index::{DhaConfig, DynamicHaIndex};

/// Table 3: H-Search over the running example ends with exactly `{t0}`.
#[test]
fn table3_trace_ends_with_t0() {
    let t = table3::measure();
    assert_eq!(t.result, vec![0]);
    assert_eq!(
        t.steps.last().map(|s| s.results_so_far.clone()),
        Some(vec![0])
    );
}

/// Table 4's space column: the HA-Indexes and the Radix-Tree sit at least
/// an order of magnitude below MH-10's ten hash tables, and dropping the
/// leaf id lists shrinks the DHA-Index further.
#[test]
fn table4_memory_column() {
    let t = table4::measure(&DatasetProfile::nuswide(), 12_500, 1, 1000);
    let mh10 = t.row("MH-10").memory_bytes;
    for label in ["DHA-Index", "Radix-Tree", "SHA-Index"] {
        let bytes = t.row(label).memory_bytes;
        assert!(
            bytes * 10 <= mh10,
            "{label}: {bytes} B is not 10× below MH-10's {mh10} B"
        );
    }
    let dha = t.row("DHA-Index").memory_bytes;
    assert!(
        t.leafless_dha_bytes < dha,
        "leafless DHA {} B vs leafy {dha} B",
        t.leafless_dha_bytes
    );
}

/// §4.7 on dense full-space codes (the Example 4 regime, n = 2^L): the
/// internal node count |V| grows far slower than n.
#[test]
fn internal_nodes_sublinear_on_dense_space() {
    let mut counts = Vec::new();
    for bits in [8usize, 10, 12] {
        let n = 1usize << bits;
        let data: Vec<(BinaryCode, u64)> = (0..n as u64)
            .map(|v| (BinaryCode::from_u64(v, bits), v))
            .collect();
        let idx = DynamicHaIndex::build_with(
            data,
            DhaConfig {
                window: 1 << (bits / 2), // the paper's w = 2^⌈L/2⌉
                max_depth: bits,
                ..DhaConfig::default()
            },
        );
        idx.check_invariants();
        counts.push((n, idx.internal_node_count()));
    }
    // n quadruples between steps; internal nodes must grow by well under
    // 4× (the analysis predicts ~O(√n), i.e. ≈2×).
    for w in counts.windows(2) {
        let (n0, v0) = w[0];
        let (n1, v1) = w[1];
        let n_growth = n1 as f64 / n0 as f64;
        let v_growth = v1 as f64 / (v0 as f64).max(1.0);
        assert!(
            v_growth < n_growth * 0.8,
            "internal nodes grew {v_growth:.2}× while n grew {n_growth:.2}×"
        );
    }
}

/// Figures 7/9: the code-based MRHA joins move a small fraction of the
/// bytes the baselines move, and that fraction shrinks as |R| grows; the
/// DFS recovers every corrupted primary exactly once.
#[test]
fn mrha_join_traffic_shapes() {
    // `experiments fig7` at HA_SCALE=0.25 (panel a), cut to ×5 and ×15 to
    // stay within seconds in a debug build.
    let f = fig7_9::measure(&DatasetProfile::nuswide(), 40, &[5, 15], 7000);
    let traffic = |cost: fn(&fig7_9::Point) -> fig7_9::Cost| -> Vec<usize> {
        f.points.iter().map(|p| cost(p).traffic_bytes).collect()
    };
    let pgbj = traffic(|p| p.pgbj);
    let pmh = traffic(|p| p.pmh);
    let a = traffic(|p| p.mrha_a);
    let b = traffic(|p| p.mrha_b);
    let factors: Vec<usize> = f.points.iter().map(|p| p.s).collect();

    for i in 0..factors.len() {
        let floor = pgbj[i].min(pmh[i]);
        for (label, mrha) in [("MRHA-A", a[i]), ("MRHA-B", b[i])] {
            assert!(
                mrha * 5 <= floor,
                "×{}: {label} {mrha} B is not 5× below min(PGBJ, PMH-10) = {floor} B",
                factors[i]
            );
        }
    }

    // PGBJ and PMH ship raw vectors, so their traffic is linear in ×s:
    // bytes per unit of ×s stay within 15 %.
    for (label, bytes) in [("PGBJ", &pgbj), ("PMH-10", &pmh)] {
        let per_s: Vec<f64> = bytes
            .iter()
            .zip(&factors)
            .map(|(&b, &s)| b as f64 / s as f64)
            .collect();
        let (lo, hi) = per_s
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(
            hi <= lo * 1.15,
            "{label} traffic is not linear in ×s: {per_s:?} B per ×1"
        );
    }
    // MRHA ships an index whose size follows the distinct codes more than
    // |R|: over the sweep its traffic grows by less than half as much as
    // PGBJ's does.
    let growth = |v: &[usize]| v[v.len() - 1] as f64 / v[0] as f64 - 1.0;
    for (label, bytes) in [("MRHA-A", &a), ("MRHA-B", &b)] {
        assert!(
            growth(bytes) * 2.0 < growth(&pgbj),
            "{label} grew by {:.2}× its first size against PGBJ's {:.2}×",
            growth(bytes),
            growth(&pgbj)
        );
    }

    // Departure 1: the paper puts PGBJ's traffic about 10× above PMH's.
    // Here PMH broadcasts all of R's raw vectors to each of the 8 workers
    // (§5.4's O(m·N·d + n·d)), which outweighs PGBJ's replicated vector
    // shuffle at every ×s.
    for i in 0..factors.len() {
        assert!(
            pmh[i] > pgbj[i],
            "×{}: PMH-10 {} B vs PGBJ {} B",
            factors[i],
            pmh[i],
            pgbj[i]
        );
    }
    // Departure 2: the paper has Option B shuffling less than Option A.
    // Here that holds only at the smallest |R| (×5, 200 tuples, by under
    // 1 %); from ×10 on, the post-hash-join shuffle B pays outweighs the
    // leaf ids it saves from the broadcast, since nearly every code is
    // distinct.
    assert!(b[0] < a[0], "×{}: B {} B vs A {} B", factors[0], b[0], a[0]);
    for i in 1..factors.len() {
        assert!(a[i] < b[i], "×{}: A {} B vs B {} B", factors[i], a[i], b[i]);
    }

    // Every primary replica is corrupted, so each of the four recovery
    // counters records every block read once.
    for p in &f.points {
        let r = p.recovery;
        assert!(r.corrupt_blocks_detected > 0, "×{}: no corruption detected", p.s);
        assert_eq!(
            [r.failovers, r.re_replications, r.degraded_reads],
            [r.corrupt_blocks_detected; 3],
            "×{}: recovery counters disagree",
            p.s
        );
    }
}
