//! Property tests of the generational serving layer.
//!
//! The central claims (DESIGN.md, "Generational serving"):
//!
//! 1. **Linearizable reads across swaps** — for *any* interleaving of
//!    inserts, deletes, selects, kNN queries and generation merges, every
//!    read returns exactly what a lockstep linear-scan oracle over the
//!    live multiset returns at that point. A merge is invisible in answers:
//!    it only moves content from the delta into the next frozen
//!    generation.
//! 2. **No stale cache hit at a generation boundary** — the result cache
//!    validates on the mutation epoch, and a swap does not bump the
//!    epoch *because it does not change the live multiset*; repeating a
//!    query across a swap may legally hit the cache, and the hit is
//!    still exact. A mutation after the swap must invalidate as before.
//! 3. **Kill-and-recover equals the oracle** — after any prefix of
//!    WAL-acknowledged mutations (merges or not, scripted crash or plain
//!    drop), `HaServe::recover` reaches exactly the state the oracle
//!    holds for the acknowledged prefix (plus any durable-unacked tail,
//!    which the WAL-before-ack contract makes legal to include).
//!
//! Plus the PR-pinned regression: a single insert lands in the owning
//! shard's delta — it no longer re-freezes the whole shard under the
//! write lock.

use std::sync::Arc;

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::TupleId;
use hamming_suite::mapreduce::InMemoryDfs;
use hamming_suite::service::{HaServe, MergeFaultPlan, ServeConfig, ServiceError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CODE_LEN: usize = 16;

/// A small pool of codes the workload draws from — collisions (same code,
/// multiple ids; same (code, id) inserted twice) are the interesting
/// cases for multiset/tombstone semantics, so the pool is kept tight.
fn code_pool(seed: u64) -> Vec<BinaryCode> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..12).map(|_| BinaryCode::random(CODE_LEN, &mut rng)).collect()
}

/// The lockstep oracle: the live multiset as a plain list of pairs.
#[derive(Clone, Default)]
struct Oracle {
    live: Vec<(BinaryCode, TupleId)>,
}

impl Oracle {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        self.live.push((code, id));
    }

    /// Removes one copy of the pair; true if one existed.
    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        match self.live.iter().position(|(c, i)| c == code && *i == id) {
            Some(pos) => {
                self.live.remove(pos);
                true
            }
            None => false,
        }
    }

    /// All ids within `h` of `q`, sorted, with multiplicity.
    fn select(&self, q: &BinaryCode, h: u32) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self
            .live
            .iter()
            .filter(|(c, _)| c.hamming(q) <= h)
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The `k` nearest `(id, distance)` pairs in `(distance, id)` order.
    fn knn(&self, q: &BinaryCode, k: usize) -> Vec<(TupleId, u32)> {
        let mut all: Vec<(TupleId, u32)> =
            self.live.iter().map(|(c, id)| (*id, c.hamming(q))).collect();
        all.sort_unstable_by_key(|&(id, d)| (d, id));
        all.truncate(k);
        all
    }
}

fn manual_cfg() -> ServeConfig {
    ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Claim 1: any insert/delete/select/kNN/merge interleaving answers
    /// exactly like the lockstep oracle, at every step — including
    /// repeat queries that may be served by the epoch-validated cache
    /// across generation swaps, and kNN over live deltas and tombstones.
    #[test]
    fn interleavings_match_lockstep_oracle(seed in any::<u64>(), steps in 40usize..=120) {
        let pool = code_pool(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let serve = HaServe::build(CODE_LEN, Vec::new(), manual_cfg()).unwrap();
        let mut oracle = Oracle::default();
        let mut merges = 0usize;
        for _ in 0..steps {
            match rng.gen_range(0..11u32) {
                0..=3 => {
                    let code = pool[rng.gen_range(0..pool.len())].clone();
                    let id = rng.gen_range(0..8u64);
                    serve.insert(code.clone(), id).unwrap();
                    oracle.insert(code, id);
                }
                4..=5 => {
                    let code = pool[rng.gen_range(0..pool.len())].clone();
                    let id = rng.gen_range(0..8u64);
                    let got = serve.delete(&code, id).unwrap();
                    let want = oracle.delete(&code, id);
                    prop_assert_eq!(got, want, "delete visibility diverged");
                }
                6 => {
                    merges += serve.merge_all_now().unwrap();
                }
                7 => {
                    let q = BinaryCode::random(CODE_LEN, &mut rng);
                    let k = [1usize, 5, 40][rng.gen_range(0..3usize)];
                    prop_assert_eq!(serve.knn(&q, k).unwrap(), oracle.knn(&q, k), "kNN k={}", k);
                }
                _ => {
                    let q = pool[rng.gen_range(0..pool.len())].clone();
                    let h = rng.gen_range(0..6u32);
                    prop_assert_eq!(serve.select(&q, h).unwrap(), oracle.select(&q, h));
                }
            }
            prop_assert_eq!(serve.len(), oracle.live.len(), "live multiset size diverged");
        }
        // Close with a merge + full sweep so every case exercises reads
        // against a freshly-published generation.
        merges += serve.merge_all_now().unwrap();
        for q in &pool {
            prop_assert_eq!(serve.select(q, 3).unwrap(), oracle.select(q, 3));
        }
        let m = serve.metrics();
        prop_assert_eq!(m.merges_completed, merges as u64);
        prop_assert_eq!(
            m.per_shard.iter().map(|s| s.delta_ops).sum::<usize>(), 0,
            "the closing merge absorbed every delta"
        );
    }

    /// Claim 3: after any acknowledged mutation prefix (with merges
    /// sprinkled in), dropping the service and recovering from the DFS
    /// reaches exactly the oracle's state — the WAL suffix replays over
    /// the last published generation.
    #[test]
    fn recover_after_drop_matches_oracle(seed in any::<u64>(), steps in 20usize..=80) {
        let pool = code_pool(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let dfs = Arc::new(InMemoryDfs::new());
        let mut oracle = Oracle::default();
        {
            let serve =
                HaServe::bootstrap_durable(&dfs, "/srv", CODE_LEN, Vec::new(), manual_cfg())
                    .unwrap();
            for _ in 0..steps {
                match rng.gen_range(0..8u32) {
                    0..=4 => {
                        let code = pool[rng.gen_range(0..pool.len())].clone();
                        let id = rng.gen_range(0..8u64);
                        serve.insert(code.clone(), id).unwrap();
                        oracle.insert(code, id);
                    }
                    5 => {
                        let code = pool[rng.gen_range(0..pool.len())].clone();
                        let id = rng.gen_range(0..8u64);
                        let got = serve.delete(&code, id).unwrap();
                        prop_assert_eq!(got, oracle.delete(&code, id));
                    }
                    _ => {
                        serve.merge_all_now().unwrap();
                    }
                }
            }
            // Dropped here: no shutdown flush exists or is needed — every
            // acknowledged mutation is already WAL-durable.
        }
        let serve = HaServe::recover(&dfs, "/srv", manual_cfg()).unwrap();
        prop_assert_eq!(serve.len(), oracle.live.len());
        for q in &pool {
            for h in [0u32, 2, 4] {
                prop_assert_eq!(serve.select(q, h).unwrap(), oracle.select(q, h));
            }
        }
    }
}

/// Claim 2, deterministically: a repeat query across a generation swap is
/// answered identically (whether or not the cache serves it), and a
/// mutation after the swap still invalidates.
#[test]
fn cache_stays_exact_across_generation_swap() {
    let pool = code_pool(7);
    let serve = HaServe::build(CODE_LEN, Vec::new(), manual_cfg()).unwrap();
    let mut oracle = Oracle::default();
    for (i, code) in pool.iter().enumerate() {
        serve.insert(code.clone(), i as TupleId).unwrap();
        oracle.insert(code.clone(), i as TupleId);
    }
    let q = pool[0].clone();
    let before = serve.select(&q, 4).unwrap();
    assert_eq!(before, oracle.select(&q, 4));

    // Swap: every shard publishes generation 1. The epoch must not move,
    // so the cached answer stays valid — and stays *right*.
    let epoch = serve.epoch();
    assert!(serve.merge_all_now().unwrap() >= 1);
    assert_eq!(serve.epoch(), epoch, "content-preserving swap must not bump the epoch");
    let hits_before = serve.metrics().cache_hits;
    let across = serve.select(&q, 4).unwrap();
    assert_eq!(across, before, "answer changed across the swap");
    assert_eq!(
        serve.metrics().cache_hits,
        hits_before + 1,
        "the repeat query is a legal (and exact) cache hit across the swap"
    );

    // A mutation after the swap invalidates: the next repeat must be a
    // miss and must see the new tuple.
    serve.insert(q.clone(), 999).unwrap();
    oracle.insert(q.clone(), 999);
    let after = serve.select(&q, 4).unwrap();
    assert_eq!(after, oracle.select(&q, 4));
    assert!(after.contains(&999), "stale cache hit at the generation boundary");
}

/// Kill-and-recover with a *scripted* crash, both polarities:
///
/// * crash **before** the WAL append — the mutation was never durable and
///   must be absent after recovery;
/// * crash **after** the WAL append (before the ack and the in-memory
///   apply) — the mutation is durable and must be present after
///   recovery, even though no client ever saw an `Ok`.
#[test]
fn scripted_crash_recovers_to_the_wal_truth() {
    for (point_after, expect_present) in [(true, true), (false, false)] {
        let dfs = Arc::new(InMemoryDfs::new());
        let pool = code_pool(11);
        let mut oracle = Oracle::default();
        let plan = if point_after {
            MergeFaultPlan::new().crash_after_wal_ack(5)
        } else {
            MergeFaultPlan::new().crash_before_wal_ack(5)
        };
        let cfg = ServeConfig {
            merge_faults: plan,
            ..manual_cfg()
        };
        {
            let serve =
                HaServe::bootstrap_durable(&dfs, "/srv", CODE_LEN, Vec::new(), cfg).unwrap();
            for i in 0..5u64 {
                let code = pool[i as usize].clone();
                serve.insert(code.clone(), i).unwrap();
                oracle.insert(code, i);
            }
            // Mutation #5 (0-based global ordinal) hits the scripted
            // crash: the service dies with a typed error and accepts
            // nothing further.
            let err = serve.insert(pool[5].clone(), 5).unwrap_err();
            assert_eq!(err, ServiceError::CrashInjected);
            if expect_present {
                // Durable-but-unacked: the WAL, not the ack, is truth.
                oracle.insert(pool[5].clone(), 5);
            }
            assert_eq!(
                serve.insert(pool[6].clone(), 6).unwrap_err(),
                ServiceError::Shutdown,
                "a crashed service accepts nothing"
            );
        }
        let serve = HaServe::recover(&dfs, "/srv", manual_cfg()).unwrap();
        assert_eq!(serve.len(), oracle.live.len());
        assert_eq!(
            serve.select(&pool[5], 0).unwrap().contains(&5),
            expect_present,
            "crash polarity {point_after:?} mishandled"
        );
        for q in &pool {
            assert_eq!(serve.select(q, 3).unwrap(), oracle.select(q, 3));
        }
    }
}

/// The PR-pinned regression: a single insert must land in the owning
/// shard's delta — previously every mutation re-froze the entire shard
/// (a full O(n) H-Build) while holding the shard's write lock.
#[test]
fn single_insert_is_delta_only_not_a_shard_refreeze() {
    let mut rng = StdRng::seed_from_u64(13);
    let data: Vec<(BinaryCode, TupleId)> = (0..500)
        .map(|i| (BinaryCode::random(CODE_LEN, &mut rng), i as TupleId))
        .collect();
    let serve = HaServe::build(CODE_LEN, data, manual_cfg()).unwrap();
    let fresh = BinaryCode::random(CODE_LEN, &mut rng);
    serve.insert(fresh.clone(), 9001).unwrap();
    let m = serve.metrics();
    assert_eq!(m.merge_attempts, 0, "no H-Build ran for a single insert");
    assert_eq!(m.merges_completed, 0);
    assert!(
        m.per_shard.iter().all(|s| s.generation == 0),
        "every shard still serves its build-time generation"
    );
    assert_eq!(
        m.per_shard.iter().map(|s| s.delta_ops).sum::<usize>(),
        1,
        "the insert sits in exactly one shard's delta"
    );
    assert!(serve.select(&fresh, 0).unwrap().contains(&9001), "and is immediately visible");
}
