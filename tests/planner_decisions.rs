//! Planner decision-table regression + routing-exactness properties.
//!
//! Two promises, tested separately:
//!
//! 1. **Decisions are pinned.** [`choose`] is a pure function of the
//!    fitted [`CostModel`] and the query profile, so its output over a
//!    fixed grid of `(bits, n, clusteredness, h)` cells is a constant
//!    table. The table is committed below; any change to the cost model's
//!    shapes or fitted constants shifts cells and fails the test, forcing
//!    the diff to show *which regimes changed hands*. On mismatch the
//!    test prints the full actual table in paste-ready Rust syntax.
//!
//! 2. **Decisions are invisible.** Whatever backend the planner picks —
//!    and whichever one is *forced* via `search_with_backend` — the
//!    answer equals the linear-scan oracle, byte-for-byte. Routing is a
//!    latency decision, never a correctness decision. The same holds for
//!    the build's decision to defer the HA-Index: a deferred index
//!    answers, routes, profiles and persists exactly like one built
//!    eagerly.

use std::sync::Barrier;

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::planner::{choose, estimate_clusteredness, DataProfile, PlanConfig};
use hamming_suite::index::testkit::{assert_matches_oracle, oracle_select, random_within};
use hamming_suite::index::{
    Backend, CostModel, DynamicHaIndex, HammingIndex, MutableIndex, PlannedIndex, TupleId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use hamming_suite::obs;

const GRID_BITS: [usize; 4] = [32, 64, 128, 512];
const GRID_N: [usize; 3] = [64, 4096, 100_000];
const GRID_RHO: [f64; 3] = [0.10, 0.50, 0.85];
const GRID_H: [u32; 5] = [0, 2, 4, 8, 16];

/// `PINNED[bits][n][rho]` is one letter per `GRID_H` entry:
/// `F` = HA-Flat, `M` = MIH, `A` = arena BFS, `L` = linear scan.
///
/// Regenerate by running this test and pasting the printed table.
const PINNED: [[[&str; 3]; 3]; 4] = [
    // bits = 32
    [
        ["AAALL", "FFFLL", "FFFFL"], // n = 64
        ["MMMLL", "MMMLL", "FFFFL"], // n = 4096
        ["MMMML", "MMMLL", "MFFFL"], // n = 100000
    ],
    // bits = 64
    [
        ["AAALL", "FFFLL", "FFFFL"], // n = 64
        ["MMMML", "MMMML", "FFMML"], // n = 4096
        ["MMMML", "MMMML", "MMMML"], // n = 100000
    ],
    // bits = 128
    [
        ["AAAAL", "FFFFL", "FFFFF"], // n = 64
        ["MMMMM", "MMMMM", "FFFFM"], // n = 4096
        ["MMMMM", "MMMMM", "FFFFM"], // n = 100000
    ],
    // bits = 512
    [
        ["AAAAA", "FFFFF", "FFFFF"], // n = 64
        ["MMMMM", "MMMMM", "FFFFF"], // n = 4096
        ["MMMMM", "MMMMM", "FFFFF"], // n = 100000
    ],
];

#[test]
fn decision_table_is_pinned() {
    let model = CostModel::default();
    let mut actual = String::new();
    let mut drift = Vec::new();
    for (bi, &bits) in GRID_BITS.iter().enumerate() {
        actual.push_str(&format!("    // bits = {bits}\n    [\n"));
        for (ni, &n) in GRID_N.iter().enumerate() {
            let mut row = Vec::new();
            for (ri, &rho) in GRID_RHO.iter().enumerate() {
                let profile = DataProfile { bits, n, clusteredness: rho };
                let letters: String = GRID_H
                    .iter()
                    .map(|&h| choose(&model, &profile, h, &Backend::ALL).letter())
                    .collect();
                if letters != PINNED[bi][ni][ri] {
                    drift.push(format!(
                        "bits={bits} n={n} rho={rho}: pinned {} got {letters}",
                        PINNED[bi][ni][ri]
                    ));
                }
                row.push(format!("\"{letters}\""));
            }
            actual.push_str(&format!("        [{}], // n = {n}\n", row.join(", ")));
        }
        actual.push_str("    ],\n");
    }
    assert!(
        drift.is_empty(),
        "planner decisions drifted from the pinned table:\n{}\n\n\
         full actual table (paste into PINNED):\n[\n{actual}]",
        drift.join("\n")
    );
}

/// The tie-break order is part of the contract: on exactly equal
/// estimates, earlier in `Backend::ALL` wins, so a run reproduces
/// byte-identically across machines with the same fitted constants.
#[test]
fn choose_is_deterministic_and_respects_availability() {
    let model = CostModel::default();
    let profile = DataProfile { bits: 64, n: 10_000, clusteredness: 0.4 };
    for h in GRID_H {
        let a = choose(&model, &profile, h, &Backend::ALL);
        let b = choose(&model, &profile, h, &Backend::ALL);
        assert_eq!(a, b, "same inputs, same choice");
        assert_eq!(
            choose(&model, &profile, h, &[]),
            Backend::Linear,
            "no backends available falls back to the scan"
        );
        assert_eq!(choose(&model, &profile, h, &[a]), a);
    }
}

fn dataset(rng: &mut StdRng, n: usize, bits: usize, clustered: bool) -> Vec<(BinaryCode, TupleId)> {
    let centers: Vec<BinaryCode> = (0..3).map(|_| BinaryCode::random(bits, rng)).collect();
    (0..n as TupleId)
        .map(|id| {
            let code = if clustered && rng.gen_bool(0.8) {
                let mut c = centers[rng.gen_range(0..centers.len())].clone();
                c.flip(rng.gen_range(0..bits));
                c
            } else {
                BinaryCode::random(bits, rng)
            };
            (code, id)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every routed answer — and every *forced* backend's answer — equals
    /// the linear-scan oracle, across widths, dataset shapes, thresholds
    /// and adopted HA-Indexes mutated before adoption (whose snapshot is
    /// stale or missing until `freeze`: a window for HA-Flat that the
    /// availability set must close).
    #[test]
    fn every_route_matches_the_oracle(
        seed in any::<u64>(),
        bits_sel in 0usize..4,
        n in 1usize..80,
        clustered in any::<bool>(),
        h in 0u32..40,
        mutate in any::<bool>(),
    ) {
        let bits = [32usize, 64, 128, 512][bits_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live = dataset(&mut rng, n, bits, clustered);
        let planned = if mutate {
            // Mutations leave a frozen HA-Index's snapshot stale, and
            // `from_dha` compiles none until freeze(); routing must
            // notice and still answer exactly.
            let mut dha = DynamicHaIndex::build(live.clone());
            if rng.gen_bool(0.5) {
                dha.freeze();
            }
            let extra = BinaryCode::random(bits, &mut rng);
            dha.insert(extra.clone(), 90_000);
            live.push((extra, 90_000));
            if rng.gen_bool(0.5) {
                let (code, id) = live.swap_remove(0);
                prop_assert!(dha.delete(&code, id));
            }
            let mut adopted = PlannedIndex::from_dha(dha, CostModel::default());
            if rng.gen_bool(0.5) {
                adopted.freeze();
            }
            adopted
        } else {
            PlannedIndex::build(bits, live.clone())
        };
        let q = BinaryCode::random(bits, &mut rng);

        let (backend, routed) = planned.search_routed(&q, h);
        prop_assert!(planned.available().contains(&backend) || backend == Backend::Linear);
        assert_matches_oracle(routed.clone(), &live, &q, h, &format!("routed via {backend}"));
        prop_assert_eq!(&routed, &planned.search(&q, h), "trait search ≡ routed");

        for forced in Backend::ALL {
            if let Some(ids) = planned.search_with_backend(forced, &q, h) {
                prop_assert_eq!(&ids, &routed, "forced {} diverged from routed", forced);
            } else {
                prop_assert!(
                    !planned.available().contains(&forced),
                    "available backend {} refused to answer", forced
                );
            }
        }

        let with_d = planned.search_with_distances(&q, h);
        let ids_of_d: Vec<TupleId> = with_d.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(&ids_of_d, &routed, "distance ids ≡ routed ids");
        for &(id, d) in &with_d {
            let code = &live.iter().find(|(_, i)| *i == id).expect("id is live").0;
            prop_assert_eq!(d, code.hamming(&q), "reported distance is exact");
        }
    }

    /// The clusteredness estimator orders regimes correctly: heavy
    /// near-duplicate data scores above uniform data at every width, and
    /// the planner profile reflects what was actually indexed.
    #[test]
    fn clusteredness_separates_regimes(seed in any::<u64>(), bits_sel in 0usize..4) {
        let bits = [32usize, 64, 128, 512][bits_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let tight = dataset(&mut rng, 120, bits, true);
        let loose = dataset(&mut rng, 120, bits, false);
        let rho_tight = estimate_clusteredness(tight.iter().map(|(c, _)| c));
        let rho_loose = estimate_clusteredness(loose.iter().map(|(c, _)| c));
        prop_assert!(
            rho_tight > rho_loose,
            "clustered {rho_tight} must score above uniform {rho_loose} at {bits} bits"
        );
        let planned = PlannedIndex::build(bits, tight);
        let p = planned.profile();
        prop_assert_eq!(p.bits, bits);
        prop_assert_eq!(p.n, 120);
        prop_assert!((p.clusteredness - rho_tight).abs() < 0.2);
    }

    /// A build that defers its HA-Index is indistinguishable from one that
    /// does not. Under [`flat_priced_out`] every build at these sizes
    /// defers (as the default model does on HAB's 10⁶-row sparse set), so
    /// each case checks, against the eager `DynamicHaIndex::build` +
    /// `freeze` of the same items: the profile's clusteredness (bit for
    /// bit), the route at every threshold (also after the HA-Index is
    /// built by a forced search), every forced backend's answers at `h`
    /// and `h + 1` (the linear oracle's), and the HA-Store snapshot (byte
    /// for byte).
    #[test]
    fn a_deferred_ha_index_is_invisible(
        seed in any::<u64>(),
        bits_sel in 0usize..3,
        n in 1usize..300,
        clustered in any::<bool>(),
        h in 0u32..24,
    ) {
        let bits = [64usize, 128, 512][bits_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let items = dataset(&mut rng, n, bits, clustered);
        let model = flat_priced_out();
        let cfg = PlanConfig { model: model.clone(), ..PlanConfig::default() };
        let planned = PlannedIndex::build_with(bits, items.clone(), cfg);
        prop_assert_eq!(planned.memory_bytes(), planned.mih().memory_bytes(), "only the MIH");
        prop_assert!(!planned.flat_can_win(h));

        let mut eager = DynamicHaIndex::build(items.clone());
        let want_rho = estimate_clusteredness(eager.leaf_codes());
        prop_assert_eq!(planned.profile().clusteredness.to_bits(), want_rho.to_bits());
        eager.freeze();
        let routes = |p: &PlannedIndex| -> Vec<Backend> {
            (0..=bits as u32 + 1).map(|h| p.backend_for(h)).collect()
        };
        let before = routes(&planned);
        prop_assert_eq!(&before, &routes(&PlannedIndex::from_dha(eager.clone(), model)));

        let near = &items[rng.gen_range(0..n)].0;
        let q = random_within(near, h + 1, &mut rng);
        for at in [h, h + 1] {
            let want = oracle_select(&items, &q, at);
            for backend in Backend::ALL {
                let got = planned.search_with_backend(backend, &q, at);
                prop_assert_eq!(got.as_ref(), Some(&want), "{} at h={}", backend, at);
            }
        }
        prop_assert!(planned.memory_bytes() > planned.mih().memory_bytes(), "forcing built it");
        prop_assert_eq!(&before, &routes(&planned));
        prop_assert_eq!(planned.store_bytes(), Some(eager.write_store()));
    }
}

/// Prices the flat layout out at every threshold and width: its best case
/// costs more per row than a scan of 512-bit codes, and the arena costs
/// more again, so builds defer and routes go to MIH or the scan.
fn flat_priced_out() -> CostModel {
    CostModel { flat_row_h_ns: 100.0, arena_row_h_ns: 200.0, ..CostModel::default() }
}

/// Four threads force one path on a freshly built index at once: the flat
/// path on a build that deferred its snapshot, and the arena path on a
/// flat-routed build, which made its snapshot without the arena. Each is
/// built exactly once (one `core.plan.materialize` span under the test's
/// root), and all four threads get the same answer.
#[test]
fn racing_first_demands_build_the_ha_index_once() {
    const THREADS: usize = 4;
    let mut rng = StdRng::seed_from_u64(31);
    let items = dataset(&mut rng, 2_000, 128, true);
    let cfg = PlanConfig { model: flat_priced_out(), ..PlanConfig::default() };
    let deferred = PlannedIndex::build_with(128, items.clone(), cfg);
    let flat_routed = PlannedIndex::build(128, items.clone());
    let snapshot = flat_routed.memory_bytes();
    assert!(snapshot > flat_routed.mih().memory_bytes(), "the build made its snapshot");
    let q = random_within(&items[7].0, 5, &mut rng);
    let want = oracle_select(&items, &q, 5);

    for (planned, backend) in [(&deferred, Backend::HaFlat), (&flat_routed, Backend::ArenaBfs)] {
        obs::reset();
        let root = obs::span("test.race");
        let ctx = obs::current_context();
        let start = Barrier::new(THREADS);
        let answers: Vec<Option<Vec<TupleId>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let _thread = obs::span_under("test.thread", &ctx);
                        start.wait();
                        planned.search_with_backend(backend, &q, 5)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        drop(root);
        let trace = obs::take_trace();
        obs::disable();

        let race = trace.last_named("test.race").expect("root span");
        let builds = trace
            .subtree(race.id)
            .into_iter()
            .filter(|s| s.name == "core.plan.materialize")
            .count();
        assert_eq!(builds, 1, "{backend}: one materialisation for {THREADS} racing threads");
        for got in answers {
            assert_eq!(got.as_ref(), Some(&want), "{backend}");
        }
    }
    assert!(flat_routed.memory_bytes() > snapshot, "the arena counts once built");
}
