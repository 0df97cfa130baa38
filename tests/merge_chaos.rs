//! Chaos tests of the generational merge worker and crash recovery,
//! driven by the deterministic `MergeFaultPlan` (the serving-layer
//! sibling of `FaultPlan` / `StorageFaultPlan`).
//!
//! Claims under test:
//!
//! 1. **Panic containment** — an injected panic mid-merge is caught by
//!    the worker's `catch_unwind`, counted, retried after backoff, and
//!    the retry publishes the generation; answers are never wrong in
//!    between.
//! 2. **Graceful degradation** — exhausting the retry budget poisons the
//!    shard's merge: the shard keeps serving *exactly* from
//!    generation ⊎ delta, mutations keep applying, and no generation is
//!    ever published from a poisoned state.
//! 3. **Swap atomicity under concurrency** — with a scripted
//!    publish delay widening the race window, concurrent readers never
//!    observe a regressed generation number or a wrong answer.
//! 4. **Kill-and-replay fidelity** (the PR's acceptance criterion) — a
//!    scripted crash between WAL append and acknowledgment, followed by
//!    `HaServe::recover` and the rest of the workload, yields answers
//!    byte-identical to a fault-free run of the same workload, with
//!    exact WAL/merge recovery counters and no generation regression
//!    across the crash.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::TupleId;
use hamming_suite::mapreduce::InMemoryDfs;
use hamming_suite::service::{
    CrashPoint, HaServe, MergeFaultEvent, MergeFaultPlan, ServeConfig, ServiceError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CODE_LEN: usize = 16;
const SHARDS: usize = 4;

fn pool(seed: u64, n: usize) -> Vec<BinaryCode> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| BinaryCode::random(CODE_LEN, &mut rng)).collect()
}

fn manual_cfg() -> ServeConfig {
    ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    }
}

/// Sorted ids within `h` of `q` over a plain pair list.
fn oracle(live: &[(BinaryCode, TupleId)], q: &BinaryCode, h: u32) -> Vec<TupleId> {
    let mut ids: Vec<TupleId> = live
        .iter()
        .filter(|(c, _)| c.hamming(q) <= h)
        .map(|&(_, id)| id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn injected_merge_panic_is_contained_retried_and_published() {
    // Panic every shard's first merge attempt; the retry (attempt 1)
    // must publish.
    let mut plan = MergeFaultPlan::new();
    for s in 0..SHARDS {
        plan = plan.panic_on_merge(s, 0);
    }
    let cfg = ServeConfig {
        merge_faults: plan,
        merge_backoff: Duration::from_micros(100),
        ..manual_cfg()
    };
    let serve = HaServe::build(CODE_LEN, Vec::new(), cfg).unwrap();
    let codes = pool(3, 20);
    let mut live = Vec::new();
    for (i, c) in codes.iter().enumerate() {
        serve.insert(c.clone(), i as TupleId).unwrap();
        live.push((c.clone(), i as TupleId));
    }
    let dirty: usize = serve
        .metrics()
        .per_shard
        .iter()
        .filter(|s| s.delta_ops > 0)
        .count();
    assert!(dirty >= 2, "20 random codes should dirty several shards");

    let published = serve.merge_all_now().unwrap();
    assert_eq!(published, dirty, "every dirty shard published despite the panic");
    let m = serve.metrics();
    assert_eq!(m.merge_panics, dirty as u64, "one contained panic per dirty shard");
    assert_eq!(m.merge_attempts, 2 * dirty as u64, "panic + successful retry");
    assert_eq!(m.merges_completed, dirty as u64);
    assert!(m.per_shard.iter().all(|s| !s.merge_poisoned));
    assert_eq!(
        m.per_shard.iter().filter(|s| s.generation == 1).count(),
        dirty
    );
    // The injector's log shows exactly the scripted panics fired.
    let fired = serve.merge_faults_delivered();
    assert_eq!(fired.len(), dirty);
    assert!(fired
        .iter()
        .all(|e| matches!(e, MergeFaultEvent::Merge { attempt: 0, .. })));
    // And the answers never flinched.
    for q in &codes {
        assert_eq!(serve.select(q, 3).unwrap(), oracle(&live, q, 3));
    }
}

#[test]
fn retry_exhaustion_poisons_merge_but_serving_stays_exact() {
    // Panic every attempt the budget allows: the merge poisons instead
    // of publishing.
    let mut plan = MergeFaultPlan::new();
    for s in 0..SHARDS {
        for a in 0..2 {
            plan = plan.panic_on_merge(s, a);
        }
    }
    let cfg = ServeConfig {
        merge_faults: plan,
        max_merge_attempts: 2,
        merge_backoff: Duration::from_micros(100),
        ..manual_cfg()
    };
    let serve = HaServe::build(CODE_LEN, Vec::new(), cfg).unwrap();
    let codes = pool(5, 24);
    let mut live = Vec::new();
    for (i, c) in codes.iter().enumerate() {
        serve.insert(c.clone(), i as TupleId).unwrap();
        live.push((c.clone(), i as TupleId));
    }
    let dirty: usize = serve
        .metrics()
        .per_shard
        .iter()
        .filter(|s| s.delta_ops > 0)
        .count();

    assert_eq!(serve.merge_all_now().unwrap(), 0, "nothing may publish");
    let m = serve.metrics();
    assert_eq!(m.merge_panics, 2 * dirty as u64);
    assert_eq!(m.merges_completed, 0);
    assert_eq!(
        m.per_shard.iter().filter(|s| s.merge_poisoned).count(),
        dirty,
        "every dirty shard is poisoned, clean shards untouched"
    );
    assert!(m.per_shard.iter().all(|s| s.generation == 0), "no generation moved");

    // Degraded ≠ wrong: reads still match the oracle, mutations still
    // apply (into the un-absorbable delta), and repeated merges are
    // no-ops rather than fresh panics.
    serve.insert(codes[0].clone(), 900).unwrap();
    live.push((codes[0].clone(), 900));
    assert!(serve.delete(&codes[1], 1).unwrap());
    live.retain(|(c, i)| !(c == &codes[1] && *i == 1));
    for q in &codes {
        assert_eq!(serve.select(q, 4).unwrap(), oracle(&live, q, 4));
    }
    assert_eq!(serve.merge_all_now().unwrap(), 0);
    assert_eq!(
        serve.metrics().merge_panics,
        2 * dirty as u64,
        "poisoned shards do not re-attempt (and do not re-panic)"
    );
}

#[test]
fn delayed_publish_never_regresses_generations_under_concurrent_reads() {
    let mut plan = MergeFaultPlan::new();
    for s in 0..SHARDS {
        plan = plan.delay_publish(s, 0, Duration::from_millis(10));
    }
    let cfg = ServeConfig {
        merge_faults: plan,
        ..manual_cfg()
    };
    let serve = HaServe::build(CODE_LEN, Vec::new(), cfg).unwrap();
    let codes = pool(7, 30);
    let mut live = Vec::new();
    for (i, c) in codes.iter().enumerate() {
        serve.insert(c.clone(), i as TupleId).unwrap();
        live.push((c.clone(), i as TupleId));
    }

    let done = AtomicBool::new(false);
    let serve_ref = &serve;
    let live_ref = &live;
    let codes_ref = &codes;
    let done_ref = &done;
    std::thread::scope(|scope| {
        // Merger: every publish sleeps 10ms between build and swap,
        // widening the window concurrent readers race into.
        scope.spawn(move || {
            let published = serve_ref.merge_all_now().unwrap();
            assert!(published >= 1);
            done_ref.store(true, Ordering::SeqCst);
        });
        // Readers: generation numbers are monotone per shard and every
        // answer matches the oracle, before, during, and after the
        // delayed swaps.
        for r in 0..2 {
            scope.spawn(move || {
                let mut last_gen = [0u64; SHARDS];
                let mut i = r;
                while !done_ref.load(Ordering::SeqCst) {
                    for (s, last) in last_gen.iter_mut().enumerate() {
                        let g = serve_ref.generation(s);
                        assert!(g >= *last, "generation regressed on shard {s}");
                        *last = g;
                    }
                    let q = &codes_ref[i % codes_ref.len()];
                    assert_eq!(serve_ref.select(q, 3).unwrap(), oracle(live_ref, q, 3));
                    i += 1;
                }
            });
        }
    });
    // The delays were actually delivered, one per dirty shard.
    assert!(serve
        .merge_faults_delivered()
        .iter()
        .all(|e| matches!(e, MergeFaultEvent::Merge { attempt: 0, .. })));
    assert_eq!(
        serve.metrics().merges_completed,
        serve.merge_faults_delivered().len() as u64
    );
}

/// The acceptance criterion: a 40-insert workload with merges after ops
/// 10 and 20 and a scripted crash on op 25 (after the WAL append, before
/// the ack), recovered and completed, must answer **byte-identically** to
/// the same workload run fault-free — with exact recovery counters and
/// no generation regression across the crash.
#[test]
fn kill_and_replay_is_byte_identical_to_fault_free_run() {
    let codes = pool(9, 40);
    let workload: Vec<(BinaryCode, TupleId)> = codes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.clone(), i as TupleId))
        .collect();
    let merge_after = [10usize, 20];

    // Fault-free reference run (also durable, same merge points).
    let ref_dfs = Arc::new(InMemoryDfs::new());
    let reference =
        HaServe::bootstrap_durable(&ref_dfs, "/ref", CODE_LEN, Vec::new(), manual_cfg()).unwrap();
    for (i, (c, id)) in workload.iter().enumerate() {
        reference.insert(c.clone(), *id).unwrap();
        if merge_after.contains(&i) {
            reference.merge_all_now().unwrap();
        }
    }

    // Chaos run: same workload, crash scripted on global mutation #25.
    let dfs = Arc::new(InMemoryDfs::new());
    let cfg = ServeConfig {
        merge_faults: MergeFaultPlan::new().crash_after_wal_ack(25),
        ..manual_cfg()
    };
    let gens_at_crash;
    {
        let serve =
            HaServe::bootstrap_durable(&dfs, "/srv", CODE_LEN, Vec::new(), cfg).unwrap();
        for (i, (c, id)) in workload.iter().enumerate().take(25) {
            serve.insert(c.clone(), *id).unwrap();
            if merge_after.contains(&i) {
                serve.merge_all_now().unwrap();
            }
        }
        let (c, id) = &workload[25];
        assert_eq!(
            serve.insert(c.clone(), *id).unwrap_err(),
            ServiceError::CrashInjected
        );
        assert_eq!(
            serve.merge_faults_delivered(),
            vec![MergeFaultEvent::Crash {
                ordinal: 25,
                point: CrashPoint::AfterWalAck
            }]
        );
        let m = serve.metrics();
        assert_eq!(m.wal_appends, 26, "ops 0..=25 all reached the WAL");
        assert_eq!(m.inserts, 25, "op 25 was never acknowledged");
        gens_at_crash = m.per_shard.iter().map(|s| s.generation).collect::<Vec<_>>();
        // Dropped: the in-memory state dies with the "process".
    }

    // Recovery: the last durable generations plus the WAL suffix. Ops
    // 0..=20 were absorbed by the two merges (and truncated); ops 21..=25
    // survive only in the WAL — including the durable-unacked #25.
    let serve = HaServe::recover(&dfs, "/srv", manual_cfg()).unwrap();
    let m = serve.metrics();
    assert_eq!(m.wal_replayed, 5, "exactly the un-absorbed suffix replays");
    assert_eq!(m.merge_attempts, 0, "recovery replays; it does not merge");
    let recovered_gens: Vec<u64> = m.per_shard.iter().map(|s| s.generation).collect();
    assert_eq!(
        recovered_gens, gens_at_crash,
        "recovery resumes at the published generations — no regression"
    );
    assert_eq!(serve.len(), 26, "ops 0..=24 acked + #25 durable-unacked");

    // Finish the workload on the recovered service.
    for (c, id) in workload.iter().skip(26) {
        serve.insert(c.clone(), *id).unwrap();
    }
    serve.merge_all_now().unwrap();

    // Byte-identical: every query, at every radius, on both services.
    assert_eq!(serve.len(), reference.len());
    for q in &codes {
        for h in [0u32, 2, 4, 6] {
            assert_eq!(
                serve.select(q, h).unwrap(),
                reference.select(q, h).unwrap(),
                "recovered and fault-free runs diverged at h={h}"
            );
        }
        assert_eq!(serve.knn(q, 5).unwrap(), reference.knn(q, 5).unwrap());
    }
}
