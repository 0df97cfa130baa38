//! Phase 3 — the MapReduce Hamming-join itself (§5.3, Figure 5 right).
//!
//! The global HA-Index travels to every worker through the distributed
//! cache; a MapReduce job hashes and partitions S and probes the index.
//!
//! * **Option A** (R small): the broadcast index carries its leaf id
//!   lists, so reducers emit result pairs directly. Each worker adopts
//!   the HA-Index it received as a [`PlannedIndex`] (`probe_side`): the
//!   MIH is derived from the index's own items, the flat snapshot is
//!   compiled only if it can win at the join's `h`, and every probe is
//!   routed by the fitted cost model across flat / arena / MIH / linear.
//!   Answers are ids ascending on every route, so the route never shows
//!   in the pairs, and the derived MIH is never shipped: the broadcast
//!   volume is the HA-Index's wire length alone (Figure 7's counts).
//! * **Option B** (R large): the index is broadcast **leafless** — the
//!   storage of leaf nodes would dominate — so H-Search returns the
//!   qualifying R *codes* off the frozen snapshot, and a follow-up
//!   MapReduce hash-join (the paper's reference \[23\]) resolves codes
//!   back to R tuple ids.

use ha_bitcode::BinaryCode;
use ha_core::dynamic::DynamicHaIndex;
use ha_core::planner::{Backend, PlannedIndex};
use ha_core::{CostModel, TupleId};
use ha_mapreduce::{
    try_run_job, DistributedCache, FaultInjector, JobError, JobMetrics, ShuffleBytes,
};

use crate::preprocess::Preprocessed;
use crate::VecTuple;

/// Which join realization to run (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinOption {
    /// Broadcast the leafy index; reducers emit id pairs directly.
    A,
    /// Broadcast the leafless index; resolve ids with a post hash-join.
    B,
    /// Pick by |R|: B once leaf storage would dominate the broadcast.
    Auto,
}

/// Result of the join phase.
pub struct JoinPhase {
    /// All `(r_id, s_id)` pairs within the Hamming threshold, sorted.
    pub pairs: Vec<(TupleId, TupleId)>,
    /// Combined metrics of the probe job (and the post-join for Option B),
    /// including the index broadcast volume.
    pub metrics: JobMetrics,
}

/// Serialized size of the HA-Index when shipped to workers. When the
/// index's own leaf mode matches the requested one, this is the *actual*
/// wire-format length (`DynamicHaIndex::to_bytes`); otherwise the
/// analytical estimate.
pub(crate) fn index_broadcast_bytes(index: &DynamicHaIndex, with_leaves: bool) -> usize {
    if index.config().keep_leaf_ids == with_leaves {
        index.to_bytes().len()
    } else {
        index.serialized_bytes(with_leaves)
    }
}

/// Option A's probe side: adopts the received HA-Index (which must keep
/// its leaf ids) as a [`PlannedIndex`] and compiles the flat snapshot
/// only when [`PlannedIndex::flat_can_win`] at `h`.
pub(crate) fn probe_side(index: DynamicHaIndex, h: u32) -> PlannedIndex {
    let mut probe = PlannedIndex::from_dha(index, CostModel::default());
    if probe.flat_can_win(h) {
        probe.freeze();
    }
    probe
}

/// The `distributed.join.route.<backend>` counter of each backend.
const ROUTES: [(Backend, &str); 4] = [
    (Backend::HaFlat, "distributed.join.route.ha-flat"),
    (Backend::ArenaBfs, "distributed.join.route.arena-bfs"),
    (Backend::Mih, "distributed.join.route.mih"),
    (Backend::Linear, "distributed.join.route.linear"),
];

/// Runs Option A under a fault injector: probe the leafy index, emit
/// pairs. The caller's index is untouched; the shipped copy is a clone.
pub fn try_join_option_a(
    index: &DynamicHaIndex,
    s: Vec<VecTuple>,
    pre: &Preprocessed,
    h: u32,
    workers: usize,
    partitions: usize,
    faults: &FaultInjector,
) -> Result<JoinPhase, JobError> {
    let probe = {
        let _span = ha_obs::span("distributed.join.probe_setup");
        probe_side(index.clone(), h)
    };
    let index_bytes = index_broadcast_bytes(index, true);
    probe_option_a(probe, index_bytes, s, pre, h, workers, partitions, faults)
}

/// Option A's probe job over an adopted probe side; `index_bytes` is the
/// shipped HA-Index's wire length, charged once per partition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_option_a(
    probe: PlannedIndex,
    index_bytes: usize,
    s: Vec<VecTuple>,
    pre: &Preprocessed,
    h: u32,
    workers: usize,
    partitions: usize,
    faults: &FaultInjector,
) -> Result<JoinPhase, JobError> {
    let cache = DistributedCache::broadcast_sized(probe, partitions, index_bytes);
    let hasher = pre.hasher.clone();
    let partitioner = &pre.partitioner;
    let config = crate::job_config("mrha-join-A", workers, partitions);

    let probe = cache.get();
    let result = try_run_job(
        &config,
        s,
        |(v, sid): VecTuple, emit| {
            use ha_hashing::SimilarityHasher;
            let code = hasher.hash(&v);
            emit(partitioner.assign(&code) as u32, (code, sid));
        },
        |&part, n| (part as usize).min(n - 1),
        |_part, tuples: Vec<(BinaryCode, TupleId)>, out: &mut Vec<(TupleId, TupleId)>| {
            let mut routed = [0u64; ROUTES.len()];
            for (code, sid) in tuples {
                let (backend, rids) = probe.search_routed(&code, h);
                for (slot, &(b, _)) in routed.iter_mut().zip(&ROUTES) {
                    *slot += u64::from(b == backend);
                }
                out.extend(rids.into_iter().map(|rid| (rid, sid)));
            }
            if ha_obs::is_enabled() {
                let deltas: Vec<(&str, u64)> = ROUTES
                    .iter()
                    .zip(routed)
                    .filter(|&(_, n)| n > 0)
                    .map(|(&(_, name), n)| (name, n))
                    .collect();
                ha_obs::add_many(&deltas);
            }
        },
        faults,
    )?;
    let mut metrics = result.metrics;
    metrics.broadcast_bytes += cache.traffic_bytes()
        + (pre.hasher.approx_bytes() + pre.partitioner.shuffle_bytes()) * workers;
    let mut pairs = result.outputs;
    pairs.sort_unstable();
    Ok(JoinPhase { pairs, metrics })
}

/// Runs Option B under a fault injector: probe the leafless index for
/// qualifying R *codes*, then resolve ids with a MapReduce hash-join
/// against R. Both jobs consult the same injector (task ids are per-job,
/// so a plan's faults fire in each job they name).
#[allow(clippy::too_many_arguments)]
pub fn try_join_option_b(
    index: &DynamicHaIndex,
    r: &[VecTuple],
    s: Vec<VecTuple>,
    pre: &Preprocessed,
    h: u32,
    workers: usize,
    partitions: usize,
    faults: &FaultInjector,
) -> Result<JoinPhase, JobError> {
    // Ship a frozen clone (the caller's index is untouched): reducers
    // probe its flat snapshot for codes.
    let mut shipped = index.clone();
    shipped.freeze();
    let cache = DistributedCache::broadcast_sized(
        shipped,
        partitions,
        index_broadcast_bytes(index, false),
    );
    let hasher = pre.hasher.clone();
    let partitioner = &pre.partitioner;
    let config = crate::job_config("mrha-join-B", workers, partitions);

    // Job 1: probe — emits (qualifying R code, s id).
    let shared = cache.get();
    let probe = try_run_job(
        &config,
        s,
        |(v, sid): VecTuple, emit| {
            use ha_hashing::SimilarityHasher;
            let code = hasher.hash(&v);
            emit(partitioner.assign(&code) as u32, (code, sid));
        },
        |&part, n| (part as usize).min(n - 1),
        |_part, tuples: Vec<(BinaryCode, TupleId)>, out: &mut Vec<(BinaryCode, TupleId)>| {
            for (code, sid) in tuples {
                let mut hits = shared.search_codes(&code, h);
                hits.sort_unstable();
                for (r_code, _dist) in hits {
                    out.push((r_code, sid));
                }
            }
        },
        faults,
    )?;

    // Job 2: hash-join the qualifying codes with R to recover r-ids
    // ("MapReduce hash-join [23] for Dataset R and the qualifying
    // binaries").
    #[derive(Clone)]
    enum Side {
        RTuple(TupleId),
        SMatch(TupleId),
    }
    impl ShuffleBytes for Side {
        fn shuffle_bytes(&self) -> usize {
            1 + 8
        }
    }
    /// One post-join input record: an R tuple or a probe match.
    type PostJoinInput = (Option<VecTuple>, Option<(BinaryCode, TupleId)>);
    let hasher2 = pre.hasher.clone();
    let join_inputs: Vec<PostJoinInput> = r
        .iter()
        .cloned()
        .map(|t| (Some(t), None))
        .chain(probe.outputs.iter().cloned().map(|m| (None, Some(m))))
        .collect();
    let post = try_run_job(
        &crate::job_config("mrha-join-B-post", workers, partitions),
        join_inputs,
        move |input, emit| match input {
            (Some((v, rid)), None) => {
                use ha_hashing::SimilarityHasher;
                emit(hasher2.hash(&v), Side::RTuple(rid));
            }
            (None, Some((code, sid))) => emit(code, Side::SMatch(sid)),
            _ => unreachable!("exactly one side set"),
        },
        ha_mapreduce::hash_partition,
        |_code, sides: Vec<Side>, out: &mut Vec<(TupleId, TupleId)>| {
            let mut rids = Vec::new();
            let mut sids = Vec::new();
            for s in sides {
                match s {
                    Side::RTuple(rid) => rids.push(rid),
                    Side::SMatch(sid) => sids.push(sid),
                }
            }
            for &rid in &rids {
                for &sid in &sids {
                    out.push((rid, sid));
                }
            }
        },
        faults,
    )?;

    let mut metrics = probe.metrics;
    metrics.absorb(&post.metrics);
    metrics.broadcast_bytes += cache.traffic_bytes()
        + (pre.hasher.approx_bytes() + pre.partitioner.shuffle_bytes()) * workers;
    let mut pairs = post.outputs;
    pairs.sort_unstable();
    Ok(JoinPhase { pairs, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_index::try_build_global_index;
    use crate::preprocess::preprocess;
    use ha_core::dynamic::DhaConfig;
    use ha_core::select::nested_loop_join;
    use ha_datagen::{generate, DatasetProfile};
    use ha_hashing::SimilarityHasher;

    fn dataset(n: usize, seed: u64, id_base: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(10, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, id_base + i as u64))
            .collect()
    }

    /// Reference result: hash both sides centrally, nested-loop join.
    fn oracle(
        r: &[VecTuple],
        s: &[VecTuple],
        pre: &Preprocessed,
        h: u32,
    ) -> Vec<(TupleId, TupleId)> {
        let rc: Vec<(BinaryCode, TupleId)> =
            r.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
        let sc: Vec<(BinaryCode, TupleId)> =
            s.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
        nested_loop_join(&rc, &sc, h)
    }

    /// Phase 2 over 4 workers and 4 partitions, without injected faults.
    fn build(r: &[VecTuple], pre: &Preprocessed, keep_leaf_ids: bool) -> DynamicHaIndex {
        let dha = DhaConfig {
            keep_leaf_ids,
            ..DhaConfig::default()
        };
        try_build_global_index(r.to_vec(), pre, &dha, 4, 4, &FaultInjector::none())
            .expect("phase 2 runs")
            .index
    }

    #[test]
    fn option_a_matches_centralized_join() {
        // Same generator seed for R and S: the join is guaranteed
        // non-empty, so the equality below is over a real result set.
        let r = dataset(150, 41, 0);
        let s = dataset(200, 41, 10_000);
        let pre = preprocess(&r, &s, 0.2, 32, 4, 5);
        let index = build(&r, &pre, true);
        let phase = try_join_option_a(&index, s.clone(), &pre, 3, 4, 4, &FaultInjector::none())
            .expect("option A runs");
        let want = oracle(&r, &s, &pre, 3);
        assert!(want.len() >= 150, "workload too sparse ({})", want.len());
        assert_eq!(phase.pairs, want);
        // The broadcast is the HA-Index's wire length per partition plus
        // the hasher and pivots per worker: the MIH each worker derives
        // is never shipped, so it is never counted.
        let side_data = (pre.hasher.approx_bytes() + pre.partitioner.shuffle_bytes()) * 4;
        assert_eq!(
            phase.metrics.broadcast_bytes,
            index.to_bytes().len() * 4 + side_data
        );
        for (rid, sid) in &phase.pairs {
            assert!(*rid < 10_000 && *sid >= 10_000, "orientation ({rid},{sid})");
        }
    }

    #[test]
    fn option_b_matches_centralized_join() {
        let r = dataset(150, 43, 0);
        let s = dataset(200, 43, 10_000);
        let pre = preprocess(&r, &s, 0.2, 32, 4, 6);
        let index = build(&r, &pre, false);
        let phase = try_join_option_b(&index, &r, s.clone(), &pre, 3, 4, 4, &FaultInjector::none())
            .expect("option B runs");
        let want = oracle(&r, &s, &pre, 3);
        assert!(want.len() >= 150, "workload too sparse ({})", want.len());
        assert_eq!(phase.pairs, want);
    }

    #[test]
    fn options_agree_with_each_other() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let h = 3;
        // Duplicate codes: every tenth R vector again under a fresh id,
        // so leaf id lists carry several ids.
        let mut r = dataset(100, 45, 0);
        let dups: Vec<VecTuple> =
            r.iter().step_by(10).map(|(v, id)| (v.clone(), id + 1_000)).collect();
        r.extend(dups);
        // S candidates: R vectors under noise of several scales.
        let mut rng = StdRng::seed_from_u64(45);
        let pool: Vec<VecTuple> = (0..1_200u64)
            .map(|i| {
                let (v, _) = &r[i as usize % r.len()];
                let scale = [0.05, 0.1, 0.2, 0.3][i as usize % 4];
                let v = v.iter().map(|x| x + rng.gen_range(-scale..scale)).collect();
                (v, 5_000 + i)
            })
            .collect();
        let pre = preprocess(&r, &pool, 0.25, 32, 4, 7);
        // Keep the S vectors whose code sits at exactly h or h + 1 from
        // the nearest R code: every probe straddles the threshold.
        let rc: Vec<BinaryCode> = r.iter().map(|(v, _)| pre.hasher.hash(v)).collect();
        let nearest = |v: &[f64]| {
            let c = pre.hasher.hash(v);
            rc.iter().map(|x| x.hamming(&c)).min().unwrap_or(u32::MAX)
        };
        let s: Vec<VecTuple> = pool
            .into_iter()
            .filter(|(v, _)| (h..=h + 1).contains(&nearest(v)))
            .collect();
        let at = |d: u32| s.iter().filter(|(v, _)| nearest(v) == d).count();
        let (at_h, past_h) = (at(h), at(h + 1));
        assert!(at_h >= 10 && past_h >= 10, "boundary S too thin: {at_h} / {past_h}");

        let none = FaultInjector::none();
        let (leafy, leafless) = (build(&r, &pre, true), build(&r, &pre, false));
        let a = try_join_option_a(&leafy, s.clone(), &pre, h, 4, 4, &none).expect("option A runs");
        let b = try_join_option_b(&leafless, &r, s.clone(), &pre, h, 4, 4, &none)
            .expect("option B runs");
        let want = oracle(&r, &s, &pre, h);
        assert!(!want.is_empty(), "workload must produce pairs");
        assert!(
            want.iter().any(|&(rid, _)| rid >= 1_000),
            "some pair must come from a duplicated code"
        );
        assert_eq!(a.pairs, want);
        assert_eq!(b.pairs, want);
    }

    #[test]
    fn leafless_broadcast_is_smaller() {
        let r = dataset(400, 47, 0);
        let pre = preprocess(&r, &[], 0.2, 32, 4, 8);
        let with = index_broadcast_bytes(&build(&r, &pre, true), true);
        let without = index_broadcast_bytes(&build(&r, &pre, false), false);
        assert!(
            without < with,
            "leafless {without}B must undercut leafy {with}B"
        );
    }
}
