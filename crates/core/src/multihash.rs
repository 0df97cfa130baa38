//! Manku et al.'s multi-hash-table method (§2, the MH-4 / MH-10 rows of
//! Table 4).
//!
//! Pigeonhole filter: if `hamming(a, b) <= h` and the code is split into
//! `T >= h + 1` segments, at least one segment of `a` equals the matching
//! segment of `b` exactly. The method therefore keeps `T` hash tables, the
//! i-th keyed by segment `i`; a query probes each table with its own
//! segment value and verifies every bucketed candidate with a full distance
//! computation.
//!
//! The costs the paper criticises are both visible in this implementation:
//! the dataset's id list is replicated `T` times (memory column of
//! Table 4), and bucket verification is a linear scan that grows with skew
//! and with `h` (query-time column, Figure 6).

use std::collections::HashMap;

use ha_bitcode::segment::Segmentation;
use ha_bitcode::BinaryCode;

use crate::memory::{map_bytes, vec_bytes, MemoryReport};
use crate::seen::with_seen;
use crate::{HammingIndex, MutableIndex, TupleId};

/// Multi-hash-table index with `T` tables (`T - 1` = guaranteed threshold).
///
/// Faithful to Manku's design, **each table stores its own copy of the
/// code** ("this algorithm needs to replicate the database multiple
/// times") — that replication is what the Table 4 memory comparison, and
/// the paper's criticism, are about.
#[derive(Clone, Debug)]
pub struct MultiHashTable {
    code_len: usize,
    seg: Segmentation,
    /// `tables[i]`: segment-i value → (replicated code, row index) pairs.
    tables: Vec<HashMap<u64, Vec<(BinaryCode, u32)>>>,
    rows: Vec<(BinaryCode, TupleId)>,
    /// Rows removed by `delete` (lazy tombstones; compacted on rebuild).
    tombstones: usize,
}

impl MultiHashTable {
    /// Empty index over `code_len`-bit codes with `num_tables` tables.
    ///
    /// `num_tables` is raised if needed so every segment fits a machine
    /// word (extra tables only strengthen the pigeonhole guarantee).
    ///
    /// # Panics
    /// If `num_tables` is 0 or exceeds `code_len`.
    pub fn new(code_len: usize, num_tables: usize) -> Self {
        let num_tables = num_tables.max(code_len.div_ceil(64));
        let seg = Segmentation::new(code_len, num_tables);
        MultiHashTable {
            code_len,
            tables: (0..seg.count()).map(|_| HashMap::new()).collect(),
            seg,
            rows: Vec::new(),
            tombstones: 0,
        }
    }

    /// Builds from `(code, id)` pairs.
    pub fn build(
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
        num_tables: usize,
    ) -> Self {
        let mut iter = items.into_iter().peekable();
        let code_len = iter
            .peek()
            .map(|(c, _)| c.len())
            .expect("MultiHashTable::build needs at least one item");
        let mut idx = Self::new(code_len, num_tables);
        for (code, id) in iter {
            idx.insert(code, id);
        }
        idx
    }

    /// Number of hash tables `T`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Itemized memory usage — note the `T`-fold replication of row
    /// references in `structure_bytes`.
    pub fn memory_report(&self) -> MemoryReport {
        let tables: usize = self
            .tables
            .iter()
            .map(|t| {
                map_bytes(t)
                    + t.values()
                        .map(|b| vec_bytes(b) + b.iter().map(|(c, _)| c.heap_bytes()).sum::<usize>())
                        .sum::<usize>()
            })
            .sum();
        let code_heap: usize = self.rows.iter().map(|(c, _)| c.heap_bytes()).sum();
        MemoryReport {
            structure_bytes: tables,
            code_bytes: vec_bytes(&self.rows) + code_heap,
            payload_bytes: 0,
        }
    }
}

impl HammingIndex for MultiHashTable {
    fn name(&self) -> &'static str {
        "MultiHashTable"
    }

    fn len(&self) -> usize {
        self.rows.len() - self.tombstones
    }

    fn code_len(&self) -> usize {
        self.code_len
    }

    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        assert_eq!(query.len(), self.code_len, "query length mismatch");
        let mut out = Vec::new();
        // The seen-set de-duplicates candidates surfacing in several
        // tables.
        with_seen(self.rows.len(), |seen| {
            for (i, table) in self.tables.iter().enumerate() {
                let key = self.seg.extract(query, i);
                let Some(bucket) = table.get(&key) else {
                    continue;
                };
                for (code, row) in bucket {
                    let r = *row as usize;
                    if seen.test_and_set(r) {
                        continue;
                    }
                    // Verify against the table-local replica (the linear
                    // within-bucket scan Manku's method pays).
                    if code.hamming_within(query, h).is_some() {
                        out.push(self.rows[r].1);
                    }
                }
            }
        });
        out
    }

    fn complete_up_to(&self) -> Option<u32> {
        Some(self.tables.len() as u32 - 1)
    }

    fn memory_bytes(&self) -> usize {
        self.memory_report().total()
    }
}

impl MutableIndex for MultiHashTable {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        assert_eq!(code.len(), self.code_len, "code length mismatch");
        let row = self.rows.len() as u32;
        for (i, table) in self.tables.iter_mut().enumerate() {
            let key = self.seg.extract(&code, i);
            table.entry(key).or_default().push((code.clone(), row));
        }
        self.rows.push((code, id));
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        // Find the live row via table 0's bucket (cheaper than a scan).
        let key = self.seg.extract(code, 0);
        let Some(bucket) = self.tables[0].get(&key) else {
            return false;
        };
        let Some(row) = bucket
            .iter()
            .map(|&(_, r)| r)
            .find(|&r| self.rows[r as usize].1 == id && &self.rows[r as usize].0 == code)
        else {
            return false;
        };
        // Unlink from every table's bucket.
        for (i, table) in self.tables.iter_mut().enumerate() {
            let key = self.seg.extract(code, i);
            if let Some(b) = table.get_mut(&key) {
                if let Some(pos) = b.iter().position(|&(_, r)| r == row) {
                    b.swap_remove(pos);
                }
                if b.is_empty() {
                    table.remove(&key);
                }
            }
        }
        // Tombstone the row (keeps row indices stable for other buckets).
        self.rows[row as usize].1 = TupleId::MAX;
        self.tombstones += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, paper_table_s, random_dataset};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_example_select_mh4() {
        let data = paper_table_s();
        // 9-bit codes, 4 tables → guaranteed complete up to h = 3.
        let idx = MultiHashTable::build(data.clone(), 4);
        assert_eq!(idx.complete_up_to(), Some(3));
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "mh4");
    }

    #[test]
    fn complete_within_guarantee_random_data() {
        let data = random_dataset(400, 32, 5);
        for t in [4, 6, 10] {
            let idx = MultiHashTable::build(data.clone(), t);
            let mut rng = StdRng::seed_from_u64(t as u64);
            for h in 0..t as u32 {
                let q = BinaryCode::random(32, &mut rng);
                assert_matches_oracle(idx.search(&q, h), &data, &q, h, "mh");
            }
        }
    }

    #[test]
    fn beyond_guarantee_is_subset_of_oracle() {
        let data = random_dataset(400, 32, 6);
        let idx = MultiHashTable::build(data.clone(), 4);
        let mut rng = StdRng::seed_from_u64(1);
        let q = BinaryCode::random(32, &mut rng);
        let h = 12; // way past the guarantee of 3
        let mut got = idx.search(&q, h);
        got.sort_unstable();
        got.dedup();
        let want = crate::testkit::oracle_select(&data, &q, h);
        // No false positives ever; false negatives allowed past guarantee.
        for id in &got {
            assert!(want.contains(id));
        }
    }

    #[test]
    fn never_returns_duplicates() {
        // A query equal to a stored code appears in all T buckets; the
        // seen-set must emit it once.
        let data = random_dataset(100, 24, 8);
        let idx = MultiHashTable::build(data.clone(), 4);
        let q = data[3].0.clone();
        let got = idx.search(&q, 2);
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(got.len(), dedup.len());
    }

    #[test]
    fn insert_delete_roundtrip() {
        let data = random_dataset(200, 32, 9);
        let mut idx = MultiHashTable::build(data.clone(), 4);
        let (code, id) = data[50].clone();
        assert!(idx.delete(&code, id));
        assert!(!idx.delete(&code, id));
        assert!(!idx.search(&code, 0).contains(&id));
        assert_eq!(idx.len(), 199);
        idx.insert(code.clone(), id);
        assert!(idx.search(&code, 0).contains(&id));
        let mut rng = StdRng::seed_from_u64(2);
        let q = BinaryCode::random(32, &mut rng);
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "mh-after-update");
    }

    #[test]
    fn memory_grows_with_table_count() {
        let data = random_dataset(500, 32, 10);
        let m4 = MultiHashTable::build(data.clone(), 4);
        let m10 = MultiHashTable::build(data, 10);
        assert!(
            m10.memory_bytes() > m4.memory_bytes(),
            "10 tables ({}B) should cost more than 4 ({}B)",
            m10.memory_bytes(),
            m4.memory_bytes()
        );
        // The replication factor is exactly T: every code is copied into
        // each of the T tables (Manku's "replicate the database" cost).
        let entries = |m: &MultiHashTable| -> usize {
            m.tables.iter().map(|t| t.values().map(Vec::len).sum::<usize>()).sum()
        };
        assert_eq!(entries(&m4), 4 * 500);
        assert_eq!(entries(&m10), 10 * 500);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_mh_complete_within_guarantee(seed in any::<u64>(), h in 0u32..4) {
            let data = random_dataset(120, 28, seed);
            let idx = MultiHashTable::build(data.clone(), 4);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
            let q = BinaryCode::random(28, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "mh-prop");
        }
    }
}
