//! Delta overlay for generational serving: a small mutable batch of
//! H-Inserts / H-Deletes searched **alongside** a frozen base
//! [`PlannedIndex`], so mutations never touch (or re-freeze) the base.
//!
//! This is the paper's §5 dynamic maintenance recast as LSM-style
//! compaction: the base is an immutable generation, the [`DeltaIndex`]
//! absorbs the stream, and a background merge periodically materializes
//! `base ⊎ delta` into the next generation. Three views make that safe:
//!
//! * **adds** — `(code, id)` pairs inserted since the generation was
//!   built, scanned linearly at query time (the delta is bounded by the
//!   merge trigger, so the scan is O(delta), not O(n));
//! * **dels** — a multiset of tombstoned *base* pairs at exact
//!   `(code, id)` granularity; a query near a tombstone re-reads the
//!   ids stored at the affected codes (an exact-code probe of the base's
//!   MIH) and subtracts;
//! * **ops** — the ordered, sequence-stamped log of everything applied,
//!   which lets a publish [`rebase`](DeltaIndex::rebase) the un-absorbed
//!   suffix onto the freshly built generation.
//!
//! The composed read (`base` minus `dels` plus `adds`) returns, as a
//! multiset, exactly what a linear scan over the live pairs returns —
//! the equivalence `tests/serve_generations.rs` pins against a lockstep
//! oracle. Because a merge is *content-preserving* (`materialize` +
//! `rebase` change representation, never the live pair multiset), the
//! serving layer's mutation epoch does not move when a generation is
//! swapped in — which is what keeps epoch-tagged result caching exact
//! across generation boundaries.

use std::collections::HashMap;

use ha_bitcode::BinaryCode;

use crate::planner::PlannedIndex;
use crate::{HammingIndex, TupleId};

/// One streamed mutation, as recorded in the delta's op log (and, on the
/// durable serving path, in the write-ahead log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// H-Insert of a `(code, id)` pair.
    Insert(BinaryCode, TupleId),
    /// H-Delete of one `(code, id)` pair.
    Delete(BinaryCode, TupleId),
}

/// The mutable overlay of one generational shard. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct DeltaIndex {
    /// Ordered `(seq, op)` log of every applied mutation (no-op deletes
    /// are not recorded — they change nothing to re-apply).
    ops: Vec<(u64, DeltaOp)>,
    /// Pairs inserted since the base generation was built.
    adds: Vec<(BinaryCode, TupleId)>,
    /// Tombstone multiset over *base* pairs: `(code, id) → copies
    /// deleted`. Never exceeds the base's multiplicity for that pair.
    dels: HashMap<(BinaryCode, TupleId), u32>,
}

impl DeltaIndex {
    /// An empty delta.
    pub fn new() -> Self {
        DeltaIndex::default()
    }

    /// Applies one sequence-stamped mutation against `base ⊎ self`.
    /// Returns whether the live multiset changed: inserts always mutate;
    /// a delete of a pair that is not live is a no-op reported as
    /// `false` (and left out of the op log).
    pub fn apply(&mut self, base: &PlannedIndex, seq: u64, op: DeltaOp) -> bool {
        match op {
            DeltaOp::Insert(code, id) => {
                self.adds.push((code.clone(), id));
                self.ops.push((seq, DeltaOp::Insert(code, id)));
                true
            }
            DeltaOp::Delete(code, id) => {
                if let Some(pos) = self
                    .adds
                    .iter()
                    .rposition(|(c, i)| *i == id && c == &code)
                {
                    self.adds.swap_remove(pos);
                    self.ops.push((seq, DeltaOp::Delete(code, id)));
                    return true;
                }
                let key = (code, id);
                let tombstoned = self.dels.get(&key).copied().unwrap_or(0);
                let base_mult = base
                    .mih()
                    .search(&key.0, 0)
                    .iter()
                    .filter(|&&x| x == id)
                    .count() as u32;
                if base_mult > tombstoned {
                    let (code, id) = key.clone();
                    self.dels.insert(key, tombstoned + 1);
                    self.ops.push((seq, DeltaOp::Delete(code, id)));
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Number of mutations applied (the merge-trigger gauge).
    pub fn ops_len(&self) -> usize {
        self.ops.len()
    }

    /// Sequence number of the last applied mutation (0 when none) — the
    /// watermark a merge captures so the publish step knows which suffix
    /// to [`rebase`](DeltaIndex::rebase).
    pub fn last_seq(&self) -> u64 {
        self.ops.last().map_or(0, |&(seq, _)| seq)
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Live pair count of `base ⊎ self`.
    pub fn live_len(&self, base: &PlannedIndex) -> usize {
        let tombstoned: u32 = self.dels.values().sum();
        base.len() + self.adds.len() - tombstoned as usize
    }

    /// True when some tombstoned code lies within distance `h` of
    /// `query` — the predicate that forces the tombstone-aware read path.
    fn tombstone_near(&self, query: &BinaryCode, h: u32) -> bool {
        self.dels.keys().any(|(c, _)| c.hamming(query) <= h)
    }

    /// Ids at exactly `code` in the base, with tombstoned copies
    /// subtracted per `(code, id)` pair.
    fn base_ids_surviving(&self, base: &PlannedIndex, code: &BinaryCode, out: &mut Vec<TupleId>) {
        let mut counts: HashMap<TupleId, u32> = HashMap::new();
        // The base's exact-code ids, read off the MIH's rows (distance 0),
        // so tombstones never build an HA-Index the planner deferred.
        for id in base.mih().search(code, 0) {
            *counts.entry(id).or_insert(0) += 1;
        }
        for (id, copies) in counts {
            let t = self
                .dels
                .get(&(code.clone(), id))
                .copied()
                .unwrap_or(0);
            for _ in t..copies {
                out.push(id);
            }
        }
    }

    /// Composed Hamming-select over `base ⊎ self`: every live id within
    /// distance `h` of `query` (with multiplicity), sorted ascending.
    pub fn search(&self, base: &PlannedIndex, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        let mut out = if self.tombstone_near(query, h) {
            let mut v = Vec::new();
            for (code, _) in base.mih().search_codes(query, h) {
                self.base_ids_surviving(base, &code, &mut v);
            }
            v
        } else {
            base.search(query, h)
        };
        out.extend(
            self.adds
                .iter()
                .filter(|(c, _)| c.hamming(query) <= h)
                .map(|&(_, id)| id),
        );
        out.sort_unstable();
        out
    }

    /// Composed select with exact distances, sorted by `(id, distance)`
    /// (the canonical [`PlannedIndex::search_with_distances`] order).
    pub fn search_with_distances(
        &self,
        base: &PlannedIndex,
        query: &BinaryCode,
        h: u32,
    ) -> Vec<(TupleId, u32)> {
        let mut out: Vec<(TupleId, u32)> = if self.tombstone_near(query, h) {
            let mut v = Vec::new();
            for (code, d) in base.mih().search_codes(query, h) {
                let mut ids = Vec::new();
                self.base_ids_surviving(base, &code, &mut ids);
                v.extend(ids.into_iter().map(|id| (id, d)));
            }
            v
        } else {
            base.search_with_distances(query, h)
        };
        out.extend(self.adds.iter().filter_map(|(c, id)| {
            let d = c.hamming(query);
            (d <= h).then_some((*id, d))
        }));
        out.sort_unstable_by_key(|&(id, d)| (id, d));
        out
    }

    /// Materializes `base ⊎ self` as a plain item list — the input of the
    /// next generation's H-Build. Content-preserving by construction:
    /// the returned multiset *is* the live multiset.
    pub fn materialize(&self, base: &PlannedIndex) -> Vec<(BinaryCode, TupleId)> {
        let mut remaining = self.dels.clone();
        let mut items: Vec<(BinaryCode, TupleId)> = Vec::with_capacity(self.live_len(base));
        for (code, id) in base.items() {
            if let Some(t) = remaining.get_mut(&(code.clone(), id)) {
                if *t > 0 {
                    *t -= 1;
                    continue;
                }
            }
            items.push((code, id));
        }
        items.extend(self.adds.iter().cloned());
        items
    }

    /// Re-applies every op with `seq > after_seq` onto an empty delta
    /// against `new_base` — the publish step of a merge. The absorbed
    /// prefix (`seq <= after_seq`) is exactly what `new_base` already
    /// contains, so `new_base ⊎ rebased` equals `old_base ⊎ self`.
    pub fn rebase(&self, new_base: &PlannedIndex, after_seq: u64) -> DeltaIndex {
        let mut next = DeltaIndex::new();
        for (seq, op) in &self.ops {
            if *seq > after_seq {
                next.apply(new_base, *seq, op.clone());
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannedIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn composed_reads_match_lockstep_oracle() {
        const LEN: usize = 16;
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<(BinaryCode, TupleId)> = (0..120)
            .map(|i| (BinaryCode::random(LEN, &mut rng), i as TupleId))
            .collect();
        let base = PlannedIndex::build(LEN, data.clone());
        let mut delta = DeltaIndex::new();
        let mut live = data;
        let mut seq = 0u64;
        let mut next_id: TupleId = 10_000;

        for step in 0..200 {
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    let mut q = live
                        .get(rng.gen_range(0..live.len().max(1)))
                        .map(|(c, _)| c.clone())
                        .unwrap_or_else(|| BinaryCode::random(LEN, &mut rng));
                    if rng.gen_bool(0.4) {
                        q.flip(rng.gen_range(0..LEN));
                    }
                    let h = rng.gen_range(0..5);
                    assert_eq!(delta.search(&base, &q, h), oracle(&live, &q, h), "step {step}");
                    let dists = delta.search_with_distances(&base, &q, h);
                    assert_eq!(
                        dists.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                        oracle(&live, &q, h),
                        "distances step {step}"
                    );
                    assert!(dists.iter().all(|&(_, d)| d <= h));
                }
                6..=7 => {
                    let code = if rng.gen_bool(0.5) {
                        BinaryCode::random(LEN, &mut rng)
                    } else {
                        live[rng.gen_range(0..live.len())].0.clone()
                    };
                    seq += 1;
                    assert!(delta.apply(&base, seq, DeltaOp::Insert(code.clone(), next_id)));
                    live.push((code, next_id));
                    next_id += 1;
                }
                _ => {
                    let pos = rng.gen_range(0..live.len());
                    let (code, id) = live.swap_remove(pos);
                    seq += 1;
                    assert!(delta.apply(&base, seq, DeltaOp::Delete(code.clone(), id)));
                    assert!(
                        !delta.apply(&base, seq, DeltaOp::Delete(code, id)),
                        "double delete must be a no-op"
                    );
                }
            }
            assert_eq!(delta.live_len(&base), live.len(), "step {step}");
        }
    }

    #[test]
    fn materialize_then_rebase_preserves_content() {
        const LEN: usize = 12;
        let mut rng = StdRng::seed_from_u64(21);
        let data: Vec<(BinaryCode, TupleId)> = (0..80)
            .map(|i| (BinaryCode::random(LEN, &mut rng), i as TupleId))
            .collect();
        let base = PlannedIndex::build(LEN, data.clone());
        let mut delta = DeltaIndex::new();
        let mut live = data;
        for seq in 1..=40u64 {
            if rng.gen_bool(0.5) {
                let code = BinaryCode::random(LEN, &mut rng);
                delta.apply(&base, seq, DeltaOp::Insert(code.clone(), 1000 + seq));
                live.push((code, 1000 + seq));
            } else {
                let pos = rng.gen_range(0..live.len());
                let (code, id) = live.swap_remove(pos);
                assert!(delta.apply(&base, seq, DeltaOp::Delete(code, id)));
            }
        }
        // Merge point: absorb the first 25 ops into the next generation…
        let capture = delta.clone();
        let captured_seq = 25u64;
        let prefix = {
            let mut p = DeltaIndex::new();
            for (seq, op) in capture.ops.iter().filter(|&&(s, _)| s <= captured_seq) {
                p.apply(&base, *seq, op.clone());
            }
            p
        };
        let next_gen = PlannedIndex::build(LEN, prefix.materialize(&base));
        // …and rebase the suffix onto it.
        let rebased = delta.rebase(&next_gen, captured_seq);
        let mut want: Vec<(BinaryCode, TupleId)> = live.clone();
        want.sort();
        let mut got = rebased.materialize(&next_gen);
        got.sort();
        assert_eq!(got, want, "swap must be content-preserving");
        // Query equivalence across the boundary.
        for _ in 0..8 {
            let q = BinaryCode::random(LEN, &mut rng);
            for h in [0u32, 2, 4] {
                assert_eq!(
                    rebased.search(&next_gen, &q, h),
                    delta.search(&base, &q, h),
                    "reads identical across the generation swap"
                );
            }
        }
    }

    #[test]
    fn duplicate_pairs_are_tombstoned_one_copy_at_a_time() {
        const LEN: usize = 8;
        let code = BinaryCode::from_u64(5, LEN);
        let base = PlannedIndex::build(
            LEN,
            vec![(code.clone(), 1), (code.clone(), 1), (code.clone(), 2)],
        );
        let mut delta = DeltaIndex::new();
        assert_eq!(delta.search(&base, &code, 0), vec![1, 1, 2]);
        assert!(delta.apply(&base, 1, DeltaOp::Delete(code.clone(), 1)));
        assert_eq!(delta.search(&base, &code, 0), vec![1, 2]);
        assert!(delta.apply(&base, 2, DeltaOp::Delete(code.clone(), 1)));
        assert_eq!(delta.search(&base, &code, 0), vec![2]);
        assert!(!delta.apply(&base, 3, DeltaOp::Delete(code.clone(), 1)));
        assert_eq!(delta.live_len(&base), 1);
        // Deleting a delta add takes the add, not a tombstone.
        assert!(delta.apply(&base, 4, DeltaOp::Insert(code.clone(), 7)));
        assert!(delta.apply(&base, 5, DeltaOp::Delete(code.clone(), 7)));
        assert_eq!(delta.search(&base, &code, 0), vec![2]);
    }
}
