//! Serve fan-out oracle-equivalence: the width a cache-missed select or
//! a kNN round fans its shard probes across (`ServeConfig.fan_out`) is a
//! pure performance setting — **it may not change a single byte of any
//! answer**. This suite pins that claim:
//!
//! 1. The serve-level matrix — `fan_out ∈ {0, 1, 2, 8}` at 32-, 128- and
//!    512-bit codes — answers select, batched select and kNN
//!    byte-identically to inline probing (`fan_out: 1`), the oracle
//!    configuration.
//! 2. The same holds **under concurrent generation swaps**: a parallel
//!    serve and the inline serve driven in lockstep through interleaved
//!    inserts, merges and queries never diverge from each other or from
//!    a linear-scan oracle.
//! 3. The same holds **with a poisoned shard**: after a merge fault
//!    plan exhausts `max_merge_attempts` on one shard (delta-only
//!    serving for that shard), the parallel fan-out still equals the
//!    inline one.

use std::time::Duration;

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::TupleId;
use hamming_suite::service::{HaServe, MergeFaultPlan, ServeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;

/// Clustered dataset (shared prefixes → deep trees, wide frontiers).
fn dataset(rng: &mut StdRng, n: usize, bits: usize) -> Vec<(BinaryCode, TupleId)> {
    let centers: Vec<BinaryCode> = (0..4).map(|_| BinaryCode::random(bits, rng)).collect();
    (0..n as TupleId)
        .map(|id| {
            let code = if rng.gen_bool(0.7) {
                let mut c = centers[rng.gen_range(0..centers.len())].clone();
                for _ in 0..rng.gen_range(0..4) {
                    c.flip(rng.gen_range(0..bits));
                }
                c
            } else {
                BinaryCode::random(bits, rng)
            };
            (code, id)
        })
        .collect()
}

fn queries(rng: &mut StdRng, live: &[(BinaryCode, TupleId)], bits: usize) -> Vec<BinaryCode> {
    (0..4)
        .map(|_| {
            if !live.is_empty() && rng.gen_bool(0.6) {
                let mut q = live[rng.gen_range(0..live.len())].0.clone();
                q.flip(rng.gen_range(0..bits));
                q
            } else {
                BinaryCode::random(bits, rng)
            }
        })
        .collect()
}

/// Manual-drive serve (no queue workers — `pump_all` on the caller
/// thread); query-time parallelism is entirely `fan_out`'s.
fn serve_with(bits: usize, items: &[(BinaryCode, TupleId)], fan_out: usize) -> HaServe {
    let cfg = ServeConfig {
        workers: 0,
        shards: SHARDS,
        fan_out,
        ..ServeConfig::default()
    };
    HaServe::build(bits, items.to_vec(), cfg).expect("build serve")
}

/// Select + batched select + kNN on both serves must be byte-equal.
fn assert_serves_agree(
    baseline: &HaServe,
    candidate: &HaServe,
    qs: &[BinaryCode],
    radii: &[u32],
    ctx: &str,
) {
    for q in qs {
        for &h in radii {
            assert_eq!(
                candidate.select(q, h).expect("candidate select"),
                baseline.select(q, h).expect("baseline select"),
                "{ctx}: select h={h}"
            );
        }
        for k in [1usize, 5] {
            assert_eq!(
                candidate.knn(q, k).expect("candidate knn"),
                baseline.knn(q, k).expect("baseline knn"),
                "{ctx}: kNN k={k}"
            );
        }
    }
    // Batched path: submit the whole workload, then drain the queue in
    // one pump so the requests coalesce into one batch.
    let h = *radii.last().expect("radii");
    let submit = |serve: &HaServe| -> Vec<Vec<TupleId>> {
        let tickets: Vec<_> = qs
            .iter()
            .map(|q| serve.submit_select(q, h).expect("submit"))
            .collect();
        serve.pump_all();
        tickets.into_iter().map(|t| t.wait().expect("batch answer")).collect()
    };
    assert_eq!(submit(candidate), submit(baseline), "{ctx}: batched select h={h}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Claim 1: every fan-out width equals inline probing on a frozen
    /// multi-shard serve, at every paper-relevant code width.
    #[test]
    fn exec_matrix_equals_sequential_executor(seed in any::<u64>()) {
        for bits in [32usize, 128, 512] {
            let mut rng = StdRng::seed_from_u64(seed ^ bits as u64);
            let live = dataset(&mut rng, 100, bits);
            let qs = queries(&mut rng, &live, bits);
            let radii = [0u32, 2, (bits / 8) as u32];
            let baseline = serve_with(bits, &live, 1);
            // Merge so queries hit frozen generations, not just deltas.
            baseline.merge_all_now().expect("merge baseline");
            for fan_out in [0usize, 1, 2, 8] {
                let candidate = serve_with(bits, &live, fan_out);
                candidate.merge_all_now().expect("merge candidate");
                assert_serves_agree(
                    &baseline, &candidate, &qs, &radii,
                    &format!("bits={bits} fan_out={fan_out}"),
                );
            }
        }
    }

    /// Claim 2: lockstep mutations + generation swaps never let the
    /// parallel serve diverge from the inline one or the oracle.
    #[test]
    fn parallel_serve_tracks_sequential_across_generation_swaps(seed in any::<u64>()) {
        let bits = 32;
        let mut rng = StdRng::seed_from_u64(seed);
        let seq = serve_with(bits, &[], 1);
        let par = serve_with(bits, &[], 8);
        let mut live: Vec<(BinaryCode, TupleId)> = Vec::new();
        let pool = dataset(&mut rng, 24, bits);
        for step in 0..60u32 {
            match rng.gen_range(0..8u32) {
                0..=3 => {
                    let (code, _) = pool[rng.gen_range(0..pool.len())].clone();
                    let id = rng.gen_range(0..32u64);
                    seq.insert(code.clone(), id).expect("seq insert");
                    par.insert(code.clone(), id).expect("par insert");
                    live.push((code, id));
                }
                4 => {
                    let shard = rng.gen_range(0..SHARDS);
                    prop_assert_eq!(
                        seq.merge_now(shard).expect("seq merge"),
                        par.merge_now(shard).expect("par merge"),
                        "swap visibility diverged at step {}", step
                    );
                }
                _ => {
                    let q = queries(&mut rng, &live, bits).remove(0);
                    let h = rng.gen_range(0..8u32);
                    let got = par.select(&q, h).expect("par select");
                    prop_assert_eq!(
                        &got,
                        &seq.select(&q, h).expect("seq select"),
                        "select diverged at step {}", step
                    );
                    let mut want: Vec<TupleId> = live
                        .iter()
                        .filter(|(c, _)| c.hamming(&q) <= h)
                        .map(|&(_, id)| id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "oracle diverged at step {}", step);
                }
            }
        }
    }
}

/// Claim 3: a poisoned shard (merge retries exhausted → delta-only
/// serving) answers identically under parallel and inline probing —
/// fault containment and fan-out compose.
#[test]
fn poisoned_shard_serves_identically_under_parallel_fanout() {
    let bits = 32;
    let mut rng = StdRng::seed_from_u64(7171);
    let live = dataset(&mut rng, 80, bits);
    let serve_poisoned = |fan_out: usize| {
        // Shard 1's merges panic on every allowed attempt.
        let cfg = ServeConfig {
            workers: 0,
            shards: SHARDS,
            fan_out,
            merge_faults: MergeFaultPlan::new().panic_on_merge(1, 0).panic_on_merge(1, 1),
            max_merge_attempts: 2,
            merge_backoff: Duration::from_micros(100),
            ..ServeConfig::default()
        };
        let serve = HaServe::build(bits, Vec::new(), cfg).expect("build");
        for (code, id) in &live {
            serve.insert(code.clone(), *id).expect("insert");
        }
        serve.merge_all_now().expect("merge sweep");
        serve
    };
    let seq = serve_poisoned(1);
    let par = serve_poisoned(8);
    assert!(
        seq.metrics().per_shard.iter().any(|s| s.merge_poisoned),
        "the fault plan must actually poison a shard"
    );
    assert_eq!(
        seq.metrics().per_shard.iter().map(|s| s.merge_poisoned).collect::<Vec<_>>(),
        par.metrics().per_shard.iter().map(|s| s.merge_poisoned).collect::<Vec<_>>(),
        "both serves must degrade the same way"
    );
    let qs = queries(&mut rng, &live, bits);
    assert_serves_agree(&seq, &par, &qs, &[0, 2, 5], "poisoned shard");
}
