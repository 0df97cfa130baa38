//! HEngine-style segment index (§2; Liu, Shen, Torng — ICDE 2011).
//!
//! HEngine relaxes Manku's pigeonhole from *exact* segment match to
//! *distance ≤ 1*: if `hamming(a, b) <= h` and the code is split into
//! `r = ⌈(h+1)/2⌉` segments, some segment pair is within distance 1
//! (otherwise the total would be at least `2r > h`). So only `r` sorted
//! tables are needed — roughly half of Manku's — at the price of probing
//! each table with the query segment *and all its one-bit variants*
//! ("generate one-bit differing binary code with each query, then carry out
//! several binary searches over sorted hash tables").
//!
//! Memory is lower than MH (fewer tables, and each stores `(u64, u32)`
//! pairs), but query time grows with segment width (more variants) and with
//! `h` — the sensitivity Figure 6 shows.

use ha_bitcode::segment::Segmentation;
use ha_bitcode::BinaryCode;

use crate::memory::{vec_bytes, MemoryReport};
use crate::seen::with_seen;
use crate::{HammingIndex, MutableIndex, TupleId};

/// One sorted signature table: `(segment value, row index)` ordered by
/// value, probed by binary search.
type SortedTable = Vec<(u64, u32)>;

/// HEngine index with `r` segment tables (guaranteed threshold `2r - 1`).
#[derive(Clone, Debug)]
pub struct HEngine {
    code_len: usize,
    seg: Segmentation,
    tables: Vec<SortedTable>,
    rows: Vec<(BinaryCode, TupleId)>,
    tombstones: usize,
}

impl HEngine {
    /// Empty index with `r` segments over `code_len`-bit codes. `r` is
    /// raised if needed so every segment fits a machine word (extra
    /// segments only strengthen the pigeonhole guarantee).
    pub fn new(code_len: usize, r: usize) -> Self {
        let r = r.max(code_len.div_ceil(64));
        let seg = Segmentation::new(code_len, r);
        HEngine {
            code_len,
            tables: (0..seg.count()).map(|_| Vec::new()).collect(),
            seg,
            rows: Vec::new(),
            tombstones: 0,
        }
    }

    /// Empty index sized for threshold `h`: `r = ⌈(h+1)/2⌉` segments.
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
            .expect("HEngine::build needs at least one item");
        let mut idx = Self::new(code_len, r);
        for (code, id) in iter {
            idx.insert(code, id);
        }
        idx
    }

    /// Number of segment tables `r`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// All row indices whose segment `i` value equals `key`.
    fn probe<'a>(&'a self, i: usize, key: u64) -> impl Iterator<Item = u32> + 'a {
        let table = &self.tables[i];
        let start = table.partition_point(|&(v, _)| v < key);
        table[start..]
            .iter()
            .take_while(move |&&(v, _)| v == key)
            .map(|&(_, row)| row)
    }

    /// Itemized memory usage.
    pub fn memory_report(&self) -> MemoryReport {
        let tables: usize = self.tables.iter().map(vec_bytes).sum();
        let code_heap: usize = self.rows.iter().map(|(c, _)| c.heap_bytes()).sum();
        MemoryReport {
            structure_bytes: tables,
            code_bytes: vec_bytes(&self.rows) + code_heap,
            payload_bytes: 0,
        }
    }
}

impl HammingIndex for HEngine {
    fn name(&self) -> &'static str {
        "HEngine"
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
            for i in 0..self.tables.len() {
                let (_, width) = self.seg.bounds(i);
                let key = self.seg.extract(query, i);
                // Probe the exact value and every one-bit variant (the
                // "signature" expansion).
                for variant in Segmentation::one_bit_variants(key, width) {
                    for row in self.probe(i, variant) {
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

impl MutableIndex for HEngine {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        assert_eq!(code.len(), self.code_len, "code length mismatch");
        let row = self.rows.len() as u32;
        for i in 0..self.tables.len() {
            let key = self.seg.extract(&code, i);
            let table = &mut self.tables[i];
            let pos = table.partition_point(|&(v, _)| v <= key);
            table.insert(pos, (key, row));
        }
        self.rows.push((code, id));
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        let key = self.seg.extract(code, 0);
        let Some(row) = self.probe(0, key).find(|&r| {
            self.rows[r as usize].1 == id && &self.rows[r as usize].0 == code
        }) else {
            return false;
        };
        for i in 0..self.tables.len() {
            let key = self.seg.extract(code, i);
            let table = &mut self.tables[i];
            if let Some(pos) = {
                let start = table.partition_point(|&(v, _)| v < key);
                table[start..]
                    .iter()
                    .position(|&(v, r)| v == key && r == row)
                    .map(|p| start + p)
            } {
                table.remove(pos);
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
    fn for_threshold_sizes_r_by_pigeonhole() {
        assert_eq!(HEngine::for_threshold(32, 1).num_tables(), 1);
        assert_eq!(HEngine::for_threshold(32, 3).num_tables(), 2);
        assert_eq!(HEngine::for_threshold(32, 4).num_tables(), 3);
        assert_eq!(HEngine::for_threshold(32, 7).num_tables(), 4);
        // Guarantee covers the requested h.
        for h in 1..10 {
            let e = HEngine::for_threshold(32, h);
            assert!(e.complete_up_to().unwrap() >= h, "h={h}");
        }
    }

    #[test]
    fn paper_example_select() {
        let data = paper_table_s();
        let idx = HEngine::build(data.clone(), 2); // guarantee h ≤ 3
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "hengine");
    }

    #[test]
    fn complete_within_guarantee_random_data() {
        let data = random_dataset(400, 32, 15);
        for r in [2usize, 3, 4] {
            let idx = HEngine::build(data.clone(), r);
            let guarantee = idx.complete_up_to().unwrap();
            let mut rng = StdRng::seed_from_u64(r as u64);
            for h in [0, guarantee / 2, guarantee] {
                let q = BinaryCode::random(32, &mut rng);
                assert_matches_oracle(idx.search(&q, h), &data, &q, h, "hengine");
            }
        }
    }

    #[test]
    fn no_false_positives_beyond_guarantee() {
        let data = random_dataset(300, 32, 16);
        let idx = HEngine::build(data.clone(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let q = BinaryCode::random(32, &mut rng);
        let h = 10;
        let want = crate::testkit::oracle_select(&data, &q, h);
        for id in idx.search(&q, h) {
            assert!(want.contains(&id));
        }
    }

    #[test]
    fn uses_less_memory_than_mh10() {
        let data = random_dataset(1000, 64, 20);
        let he = HEngine::build(data.clone(), 2).memory_bytes();
        let mh = crate::MultiHashTable::build(data, 10).memory_bytes();
        assert!(he < mh, "HEngine {he}B should undercut MH-10 {mh}B");
    }

    #[test]
    fn insert_delete_roundtrip() {
        let data = random_dataset(150, 32, 19);
        let mut idx = HEngine::build(data.clone(), 2);
        let (code, id) = data[99].clone();
        assert!(idx.delete(&code, id));
        assert!(!idx.delete(&code, id));
        assert!(!idx.search(&code, 0).contains(&id));
        idx.insert(code.clone(), id);
        assert!(idx.search(&code, 0).contains(&id));
        let mut rng = StdRng::seed_from_u64(5);
        let q = BinaryCode::random(32, &mut rng);
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "hengine-after-update");
    }

    #[test]
    fn probe_finds_all_equal_keys() {
        // Multiple rows with identical segment values must all be probed.
        let c1: BinaryCode = "00001111".parse().unwrap();
        let c2: BinaryCode = "00000000".parse().unwrap(); // same first segment
        let idx = HEngine::build([(c1.clone(), 1), (c2.clone(), 2)], 2);
        let rows: Vec<u32> = idx.probe(0, 0b0000).collect();
        assert_eq!(rows.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_hengine_complete_within_guarantee(seed in any::<u64>(), h in 0u32..4) {
            let data = random_dataset(120, 28, seed);
            let idx = HEngine::build(data.clone(), 2); // guarantee 3
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let q = BinaryCode::random(28, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "hengine-prop");
        }
    }
}
