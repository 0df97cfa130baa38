//! HmSearch-style signature index (§2; Zhang et al. — SSDBM 2013).
//!
//! Like HEngine, HmSearch uses the relaxed pigeonhole (some segment within
//! distance 1), but it moves the 1-bit enumeration to the **data side**:
//! every stored code contributes, per segment, its value *and all one-bit
//! variants* as signatures. A query then needs only one exact-match lookup
//! per table — no query expansion — at the price of an index that is
//! `(segment_width + 1)×` larger per table. This is precisely the paper's
//! criticism: "The size of the index increases dramatically, because
//! HmSearch need to generate large amount of unique signatures", which the
//! memory column of our Table 4 run reproduces.

use std::collections::HashMap;

use ha_bitcode::segment::Segmentation;
use ha_bitcode::BinaryCode;

use crate::memory::{map_bytes, vec_bytes, MemoryReport};
use crate::seen::with_seen;
use crate::{HammingIndex, MutableIndex, TupleId};

/// HmSearch index with `r` segment tables (guaranteed threshold `2r - 1`).
#[derive(Clone, Debug)]
pub struct HmSearch {
    code_len: usize,
    seg: Segmentation,
    /// `tables[i]`: signature → rows whose segment i is within distance 1
    /// of the signature.
    tables: Vec<HashMap<u64, Vec<u32>>>,
    rows: Vec<(BinaryCode, TupleId)>,
    tombstones: usize,
}

impl HmSearch {
    /// Empty index with `r` segments over `code_len`-bit codes. `r` is
    /// raised if needed so every segment fits a machine word (extra
    /// segments only strengthen the pigeonhole guarantee).
    pub fn new(code_len: usize, r: usize) -> Self {
        let r = r.max(code_len.div_ceil(64));
        let seg = Segmentation::new(code_len, r);
        HmSearch {
            code_len,
            tables: (0..seg.count()).map(|_| HashMap::new()).collect(),
            seg,
            rows: Vec::new(),
            tombstones: 0,
        }
    }

    /// Empty index sized for threshold `h`.
    pub fn for_threshold(code_len: usize, h: u32) -> Self {
        let r = ((h as usize + 1).div_ceil(2)).max(1);
        Self::new(code_len, r.min(code_len))
    }

    /// Builds from `(code, id)` pairs with `r` segments.
    pub fn build(items: impl IntoIterator<Item = (BinaryCode, TupleId)>, r: usize) -> Self {
        let mut iter = items.into_iter().peekable();
        let code_len = iter
            .peek()
            .map(|(c, _)| c.len())
            .expect("HmSearch::build needs at least one item");
        let mut idx = Self::new(code_len, r);
        for (code, id) in iter {
            idx.insert(code, id);
        }
        idx
    }

    /// Number of segment tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total signature entries across all tables (the blow-up factor).
    pub fn signature_count(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Itemized memory usage.
    pub fn memory_report(&self) -> MemoryReport {
        let tables: usize = self
            .tables
            .iter()
            .map(|t| map_bytes(t) + t.values().map(vec_bytes).sum::<usize>())
            .sum();
        let code_heap: usize = self.rows.iter().map(|(c, _)| c.heap_bytes()).sum();
        MemoryReport {
            structure_bytes: tables,
            code_bytes: vec_bytes(&self.rows) + code_heap,
            payload_bytes: 0,
        }
    }
}

impl HammingIndex for HmSearch {
    fn name(&self) -> &'static str {
        "HmSearch"
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
        with_seen(self.rows.len(), |seen| {
            for (i, table) in self.tables.iter().enumerate() {
                // One exact lookup per table: the data side already
                // enumerated the 1-bit neighbourhood.
                let key = self.seg.extract(query, i);
                let Some(bucket) = table.get(&key) else {
                    continue;
                };
                for &row in bucket {
                    let r = row as usize;
                    if seen.test_and_set(r) {
                        continue;
                    }
                    let (code, id) = &self.rows[r];
                    if *id != TupleId::MAX && code.hamming_within(query, h).is_some() {
                        out.push(*id);
                    }
                }
            }
        });
        out
    }

    fn complete_up_to(&self) -> Option<u32> {
        Some(2 * self.tables.len() as u32 - 1)
    }

    fn memory_bytes(&self) -> usize {
        self.memory_report().total()
    }
}

impl MutableIndex for HmSearch {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        assert_eq!(code.len(), self.code_len, "code length mismatch");
        let row = self.rows.len() as u32;
        for i in 0..self.tables.len() {
            let (_, width) = self.seg.bounds(i);
            let value = self.seg.extract(&code, i);
            for sig in Segmentation::one_bit_variants(value, width) {
                self.tables[i].entry(sig).or_default().push(row);
            }
        }
        self.rows.push((code, id));
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        let key = self.seg.extract(code, 0);
        let Some(&row) = self.tables[0].get(&key).and_then(|b| {
            b.iter().find(|&&r| {
                self.rows[r as usize].1 == id && &self.rows[r as usize].0 == code
            })
        }) else {
            return false;
        };
        for i in 0..self.tables.len() {
            let (_, width) = self.seg.bounds(i);
            let value = self.seg.extract(code, i);
            for sig in Segmentation::one_bit_variants(value, width) {
                if let Some(b) = self.tables[i].get_mut(&sig) {
                    if let Some(pos) = b.iter().position(|&r| r == row) {
                        b.swap_remove(pos);
                    }
                    if b.is_empty() {
                        self.tables[i].remove(&sig);
                    }
                }
            }
        }
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
    fn paper_example_select() {
        let data = paper_table_s();
        let idx = HmSearch::build(data.clone(), 2); // guarantee h ≤ 3
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "hmsearch");
    }

    #[test]
    fn complete_within_guarantee() {
        let data = random_dataset(300, 32, 25);
        let idx = HmSearch::build(data.clone(), 2);
        let mut rng = StdRng::seed_from_u64(12);
        for h in 0..=3 {
            let q = BinaryCode::random(32, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "hmsearch");
        }
    }

    #[test]
    fn signature_blowup_matches_formula() {
        // r tables × (width + 1) signatures per row.
        let data = random_dataset(50, 32, 26);
        let idx = HmSearch::build(data, 2);
        assert_eq!(idx.signature_count(), 50 * 2 * (16 + 1));
    }

    #[test]
    fn costs_more_memory_than_hengine() {
        let data = random_dataset(500, 64, 27);
        let hm = HmSearch::build(data.clone(), 2).memory_bytes();
        let he = crate::HEngine::build(data, 2).memory_bytes();
        assert!(hm > 2 * he, "HmSearch {hm}B should dwarf HEngine {he}B");
    }

    #[test]
    fn insert_delete_roundtrip() {
        let data = random_dataset(120, 32, 28);
        let mut idx = HmSearch::build(data.clone(), 2);
        let (code, id) = data[60].clone();
        assert!(idx.delete(&code, id));
        assert!(!idx.delete(&code, id));
        assert!(!idx.search(&code, 0).contains(&id));
        idx.insert(code.clone(), id);
        assert!(idx.search(&code, 0).contains(&id));
        let mut rng = StdRng::seed_from_u64(7);
        let q = BinaryCode::random(32, &mut rng);
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "hmsearch-after-update");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_hmsearch_complete_within_guarantee(seed in any::<u64>(), h in 0u32..4) {
            let data = random_dataset(100, 28, seed);
            let idx = HmSearch::build(data.clone(), 2);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
            let q = BinaryCode::random(28, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "hmsearch-prop");
        }
    }
}
