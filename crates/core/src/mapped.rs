//! `MappedIndex` — a read-only generation served straight from a
//! persistent HA-Store snapshot, with **no decode step**.
//!
//! The legacy durable path round-trips through `DynamicHaIndex::from_bytes`
//! (parse every node into owned vectors, re-check invariants, then re-run
//! H-Build for the planner): cold-start cost grows with index size twice
//! over. A `MappedIndex` instead wraps an open [`HaStore`] — the file is
//! `mmap`-ed (or held as one aligned buffer when it arrived as bytes),
//! validated once, and searched in place through the shared
//! [`FlatStoreView`] traversal. First query runs off the page cache;
//! memory cost is the file, shared with every other process mapping it.
//!
//! Search results use the same canonical orders as
//! [`PlannedIndex`](crate::planner::PlannedIndex) — ids ascending,
//! `(id, distance)` pairs ascending — so a generation can swap between
//! planned and mapped form without readers noticing
//! ([`DeltaBase`](crate::delta::DeltaBase) abstracts the two for the
//! serving layer's delta overlay).
//!
//! What a mapped generation cannot do is *mutate* or *re-plan*: it has no
//! arena to absorb inserts and no measured cost model. The serving layer
//! therefore uses it as a crash-recovery bridge — queries are answered
//! through it immediately after restart, and the next background merge
//! materializes its items and builds a full planned generation.

use ha_bitcode::BinaryCode;
use ha_store::{FlatStoreView, HaStore, StoreError};

use crate::TupleId;

/// A frozen generation backed by a mapped HA-Store snapshot (see module
/// docs).
#[derive(Debug)]
pub struct MappedIndex {
    store: HaStore,
}

impl MappedIndex {
    /// Opens a snapshot held in memory (e.g. a DFS blob).
    pub fn open_bytes(bytes: Vec<u8>) -> Result<MappedIndex, StoreError> {
        Ok(MappedIndex {
            store: HaStore::open_bytes(bytes)?,
        })
    }

    /// Opens (and `mmap`s, where possible) a snapshot file.
    pub fn open_file(path: &std::path::Path) -> Result<MappedIndex, StoreError> {
        Ok(MappedIndex {
            store: HaStore::open_file(path)?,
        })
    }

    /// The underlying open store.
    pub fn store(&self) -> &HaStore {
        &self.store
    }

    /// The zero-copy search view.
    pub fn view(&self) -> FlatStoreView<'_> {
        self.store.view()
    }

    /// Number of indexed tuples (with multiplicity).
    pub fn len(&self) -> usize {
        self.store.meta().tuple_count
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of the indexed codes in bits.
    pub fn code_len(&self) -> usize {
        self.store.meta().code_len
    }

    /// Arena mutation epoch the snapshot froze at.
    pub fn epoch(&self) -> u64 {
        self.store.meta().epoch
    }

    /// True when served off the page cache rather than an owned buffer.
    pub fn is_mapped(&self) -> bool {
        self.store.is_mapped()
    }

    /// Hamming-select: live ids within distance `h`, sorted ascending
    /// (the canonical planned-index order).
    pub fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        let mut out = self.view().search(query, h);
        out.sort_unstable();
        out
    }

    /// Batched Hamming-select, each answer sorted ascending.
    pub fn batch_search(&self, queries: &[BinaryCode], h: u32) -> Vec<Vec<TupleId>> {
        let mut out = self.view().batch_search(queries, h);
        for ids in &mut out {
            ids.sort_unstable();
        }
        out
    }

    /// Hamming-select with exact distances, sorted by `(id, distance)`.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        let mut out = self.view().search_with_distances(query, h);
        out.sort_unstable_by_key(|&(id, d)| (id, d));
        out
    }

    /// Distinct qualifying codes with exact distances (traversal order).
    pub fn search_codes(&self, query: &BinaryCode, h: u32) -> Vec<(BinaryCode, u32)> {
        self.view().search_codes(query, h)
    }

    /// Exact point lookup: ids stored under `code` — zero-copy, borrowed
    /// straight from the mapped id section.
    pub fn ids_for_code(&self, code: &BinaryCode) -> &[TupleId] {
        self.store.view().ids_for_code(code)
    }

    /// Every indexed `(code, id)` pair, materialized — the H-Build input
    /// when the next merge upgrades this generation to a planned one.
    pub fn items_vec(&self) -> Vec<(BinaryCode, TupleId)> {
        self.view().items().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::random_dataset;
    use crate::{DynamicHaIndex, HammingIndex, PlannedIndex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mapped_of(data: &[(BinaryCode, TupleId)]) -> MappedIndex {
        let mut dha = DynamicHaIndex::build(data.to_vec());
        dha.freeze();
        let bytes = dha.flat().expect("frozen").store_bytes();
        MappedIndex::open_bytes(bytes).expect("round-trip")
    }

    #[test]
    fn mapped_answers_match_planned_canonical_orders() {
        const LEN: usize = 32;
        // Every tenth code again under a fresh id: exact-code reads return
        // multisets and code-level reads collapse them.
        let mut data = random_dataset(300, LEN, 91);
        let dups: Vec<_> = data.iter().step_by(10).map(|(c, id)| (c.clone(), id + 1_000)).collect();
        data.extend(dups);
        let planned = PlannedIndex::build(LEN, data.clone());
        let mapped = mapped_of(&data);
        assert_eq!(mapped.len(), planned.len());
        assert_eq!(mapped.code_len(), LEN);

        let mut rng = StdRng::seed_from_u64(92);
        let queries: Vec<BinaryCode> =
            (0..12).map(|_| BinaryCode::random(LEN, &mut rng)).collect();
        for h in [0u32, 2, 5, 9] {
            for q in &queries {
                assert_eq!(mapped.search(q, h), planned.search(q, h), "h={h}");
                assert_eq!(
                    mapped.search_with_distances(q, h),
                    planned.search_with_distances(q, h),
                    "h={h}"
                );
            }
            let batch = mapped.batch_search(&queries, h);
            for (q, got) in queries.iter().zip(batch) {
                assert_eq!(got, mapped.search(q, h));
                let mut want = crate::DeltaBase::search_codes(&planned, q, h);
                want.sort();
                let mut got = mapped.search_codes(q, h);
                got.sort();
                assert_eq!(got, want, "h={h}");
            }
        }
        for (code, _) in data.iter().take(40) {
            let mut want = crate::DeltaBase::ids_for_code(&planned, code);
            want.sort_unstable();
            let mut got = mapped.ids_for_code(code).to_vec();
            got.sort_unstable();
            assert_eq!(got, want);
        }
        let mut live_a = mapped.items_vec();
        let mut live_b: Vec<_> = planned.items().collect();
        live_a.sort();
        live_b.sort();
        assert_eq!(live_a, live_b);
    }
}
