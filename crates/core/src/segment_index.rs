//! The segment-signature baselines of §2 (Table 4, Figure 6) as one index:
//! Manku et al.'s multi-hash tables (MH-k), HEngine (Liu, Shen, Torng —
//! ICDE 2011) and HmSearch (Zhang et al. — SSDBM 2013).
//!
//! All three cut a code into `T` segments and keep one signature table per
//! segment. If `hamming(a, b) <= h`, some segment pair differs in at most
//! `⌊h/T⌋` bits (pigeonhole). A table links each row under every signature
//! within the *stored* radius of the row's segment; a query looks up every
//! signature within the *probed* radius of its own segment. A row
//! therefore surfaces whenever one of its segments is within
//! `ρ = stored + probed` of the query's, which makes the index complete up
//! to `h = T·(ρ + 1) − 1`. The schemes differ only in where the radius-1
//! ball around a segment is enumerated ([`for_each_neighbor`] on both
//! sides):
//!
//! | [`SegmentScheme`] | stored | probed | complete up to |
//! |---|---|---|---|
//! | `Manku` | 0 | 0 | `T − 1` |
//! | `HEngine` | 0 | 1 | `2T − 1` |
//! | `HmSearch` | 1 | 0 | `2T − 1` |
//!
//! HEngine pays the ball per query (`w + 1` lookups per `w`-bit segment),
//! HmSearch per row (`w + 1` signatures per segment — the index blow-up the
//! paper criticises). HEngine's sorted tables probed by binary search are
//! hashed buckets here: the same exact-signature lookups.
//!
//! Manku's method "needs to replicate the database multiple times": each of
//! its tables verifies against its own copy of the code. The row store
//! holds `T` consecutive rows per tuple under that scheme (one otherwise),
//! buckets link a tuple's first row, and a probe of table `i` verifies
//! against copy `i`; the replication is what Table 4's memory column
//! measures.
//!
//! A delete unlinks the tuple's rows from every bucket. The rows stay in
//! the store, unreachable, and a live count gives `len()`; no id is
//! reserved as a tombstone.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ha_bitcode::chunk::for_each_neighbor;
use ha_bitcode::segment::Segmentation;
use ha_bitcode::BinaryCode;

use crate::memory::{map_bytes, vec_bytes};
use crate::seen::with_seen;
use crate::{HammingIndex, MutableIndex, TupleId};

/// Where a [`SegmentIndex`] enumerates the radius-1 ball around a segment
/// (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentScheme {
    /// Manku et al.: exact segments on both sides, one code copy per table.
    Manku,
    /// HEngine: exact segments stored, the query's ball probed.
    HEngine,
    /// HmSearch: every row's ball stored, exact query segments probed.
    HmSearch,
}

impl SegmentScheme {
    /// `(stored, probed)` ball radii.
    fn radii(self) -> (u32, u32) {
        match self {
            SegmentScheme::Manku => (0, 0),
            SegmentScheme::HEngine => (0, 1),
            SegmentScheme::HmSearch => (1, 0),
        }
    }
}

/// One signature table: signature → first rows of the tuples linked under
/// it.
type Buckets = HashMap<u64, Vec<u32>>;

/// A mutable segment-signature index under one [`SegmentScheme`].
#[derive(Clone, Debug)]
pub struct SegmentIndex {
    scheme: SegmentScheme,
    code_len: usize,
    seg: Segmentation,
    tables: Vec<Buckets>,
    /// `copies()` consecutive rows per inserted tuple.
    rows: Vec<(BinaryCode, TupleId)>,
    live: usize,
}

impl SegmentIndex {
    /// Builds over `code_len`-bit codes with `segments` segments (`T` for
    /// Manku's MH-T, `r` for HEngine and HmSearch); `items` may be empty.
    ///
    /// `segments` is raised if needed so every segment fits a machine word
    /// (extra segments only strengthen the pigeonhole guarantee).
    ///
    /// # Panics
    /// If `segments` is 0 or exceeds `code_len`, or an item's length
    /// differs from `code_len`.
    pub fn build(
        scheme: SegmentScheme,
        code_len: usize,
        segments: usize,
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    ) -> Self {
        assert!(segments >= 1, "segment count must be >= 1");
        let seg = Segmentation::new(code_len, segments.max(code_len.div_ceil(64)));
        let mut idx = SegmentIndex {
            scheme,
            code_len,
            tables: vec![Buckets::new(); seg.count()],
            seg,
            rows: Vec::new(),
            live: 0,
        };
        for (code, id) in items {
            idx.insert(code, id);
        }
        idx
    }

    /// Rows per tuple: one per table under Manku's replication, else one.
    fn copies(&self) -> usize {
        match self.scheme {
            SegmentScheme::Manku => self.tables.len(),
            _ => 1,
        }
    }

    /// Calls `link(table, signature)` for every signature `code` is stored
    /// under.
    fn for_each_link(&mut self, code: &BinaryCode, mut link: impl FnMut(&mut Buckets, u64)) {
        let (stored, _) = self.scheme.radii();
        for (i, table) in self.tables.iter_mut().enumerate() {
            let (_, width) = self.seg.bounds(i);
            for_each_neighbor(self.seg.extract(code, i), width as u32, stored, &mut |sig| {
                link(table, sig)
            });
        }
    }
}

impl HammingIndex for SegmentIndex {
    fn name(&self) -> &'static str {
        match self.scheme {
            SegmentScheme::Manku => "MultiHashTable",
            SegmentScheme::HEngine => "HEngine",
            SegmentScheme::HmSearch => "HmSearch",
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn code_len(&self) -> usize {
        self.code_len
    }

    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        assert_eq!(query.len(), self.code_len, "query length mismatch");
        let (_, probed) = self.scheme.radii();
        let copies = self.copies();
        let mut out = Vec::new();
        // A tuple linked in several probed buckets is verified once.
        with_seen(self.rows.len(), |seen| {
            for (i, table) in self.tables.iter().enumerate() {
                let (_, width) = self.seg.bounds(i);
                let copy = i % copies;
                for_each_neighbor(self.seg.extract(query, i), width as u32, probed, &mut |sig| {
                    for &first in table.get(&sig).map_or(&[][..], Vec::as_slice) {
                        if seen.test_and_set(first as usize) {
                            continue;
                        }
                        let (code, id) = &self.rows[first as usize + copy];
                        if code.hamming_within(query, h).is_some() {
                            out.push(*id);
                        }
                    }
                });
            }
        });
        out
    }

    fn complete_up_to(&self) -> Option<u32> {
        let (stored, probed) = self.scheme.radii();
        Some(self.tables.len() as u32 * (stored + probed + 1) - 1)
    }

    fn memory_bytes(&self) -> usize {
        let buckets: usize = self
            .tables
            .iter()
            .map(|t| map_bytes(t) + t.values().map(vec_bytes).sum::<usize>())
            .sum();
        let code_heap: usize = self.rows.iter().map(|(c, _)| c.heap_bytes()).sum();
        buckets + vec_bytes(&self.rows) + code_heap
    }
}

impl MutableIndex for SegmentIndex {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        assert_eq!(code.len(), self.code_len, "code length mismatch");
        let first = self.rows.len() as u32;
        self.for_each_link(&code, |table, sig| table.entry(sig).or_default().push(first));
        let copies = self.copies();
        self.rows.extend(std::iter::repeat_n((code, id), copies));
        self.live += 1;
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        // Every scheme stores segment 0's own value in table 0.
        let key = self.seg.extract(code, 0);
        let found = self.tables[0].get(&key).and_then(|bucket| {
            bucket.iter().copied().find(|&r| {
                let (c, i) = &self.rows[r as usize];
                *i == id && c == code
            })
        });
        let Some(first) = found else {
            return false;
        };
        self.for_each_link(code, |table, sig| {
            if let Entry::Occupied(mut e) = table.entry(sig) {
                let bucket = e.get_mut();
                if let Some(pos) = bucket.iter().position(|&r| r == first) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    e.remove();
                }
            }
        });
        self.live -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, oracle_select, paper_table_s, random_dataset};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use SegmentScheme::{HEngine, HmSearch, Manku};

    /// Each scheme at the segment count that makes it complete up to h = 3.
    const AT_H3: [(SegmentScheme, usize); 3] = [(Manku, 4), (HEngine, 2), (HmSearch, 2)];

    fn build(scheme: SegmentScheme, t: usize, data: &[(BinaryCode, TupleId)]) -> SegmentIndex {
        SegmentIndex::build(scheme, data[0].0.len(), t, data.to_vec())
    }

    #[test]
    fn paper_example_select() {
        let data = paper_table_s();
        let q: BinaryCode = "101100010".parse().unwrap();
        for (scheme, t) in AT_H3 {
            let idx = build(scheme, t, &data);
            assert_eq!(idx.complete_up_to(), Some(3), "{scheme:?}");
            assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, &format!("{scheme:?}"));
        }
    }

    /// Exact at the guarantee; past it (one above) never a false positive.
    #[test]
    fn exact_at_the_guarantee_and_sound_beyond_it() {
        let data = random_dataset(400, 32, 15);
        let mut rng = StdRng::seed_from_u64(3);
        let configs = [(Manku, 4), (Manku, 6), (Manku, 10), (HEngine, 3), (HmSearch, 4)];
        for (scheme, t) in AT_H3.into_iter().chain(configs) {
            let idx = build(scheme, t, &data);
            let g = idx.complete_up_to().unwrap();
            for _ in 0..4 {
                let q = BinaryCode::random(32, &mut rng);
                let ctx = format!("{scheme:?} T={t}");
                assert_matches_oracle(idx.search(&q, g), &data, &q, g, &ctx);
                let want = oracle_select(&data, &q, g + 1);
                assert!(idx.search(&q, g + 1).iter().all(|id| want.contains(id)), "{ctx}");
            }
        }
    }

    #[test]
    fn never_returns_duplicates() {
        // A stored code queried at itself sits in every probed table.
        let data = random_dataset(100, 24, 8);
        for (scheme, t) in AT_H3 {
            let mut got = build(scheme, t, &data).search(&data[3].0, 2);
            let n = got.len();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), n, "{scheme:?}");
        }
    }

    #[test]
    fn insert_delete_roundtrip() {
        let data = random_dataset(200, 32, 9);
        let mut rng = StdRng::seed_from_u64(2);
        for (scheme, t) in AT_H3 {
            let mut idx = build(scheme, t, &data);
            let (code, id) = data[50].clone();
            assert!(idx.delete(&code, id));
            assert!(!idx.delete(&code, id));
            assert!(!idx.search(&code, 0).contains(&id));
            assert_eq!(idx.len(), 199);
            idx.insert(code.clone(), id);
            assert_eq!(idx.len(), 200);
            assert!(idx.search(&code, 0).contains(&id));
            let q = BinaryCode::random(32, &mut rng);
            assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, &format!("{scheme:?}"));
        }
    }

    /// Signatures linked across all tables.
    fn signatures(idx: &SegmentIndex) -> usize {
        idx.tables.iter().map(|t| t.values().map(Vec::len).sum::<usize>()).sum()
    }

    #[test]
    fn manku_replicates_the_codes_once_per_table() {
        let data = random_dataset(500, 32, 10);
        for t in [4, 10] {
            let idx = build(Manku, t, &data);
            assert_eq!(idx.rows.len(), t * 500);
            assert_eq!(signatures(&idx), t * 500);
        }
    }

    #[test]
    fn hmsearch_stores_every_one_bit_variant() {
        // r tables × (width + 1) signatures per row.
        let idx = build(HmSearch, 2, &random_dataset(50, 32, 26));
        assert_eq!(idx.rows.len(), 50);
        assert_eq!(signatures(&idx), 50 * 2 * (16 + 1));
    }

    #[test]
    fn memory_keeps_the_papers_order() {
        let data = random_dataset(1000, 64, 20);
        let he = build(HEngine, 2, &data).memory_bytes();
        let mh10 = build(Manku, 10, &data).memory_bytes();
        let hm = build(HmSearch, 2, &data).memory_bytes();
        assert!(he < mh10, "HEngine {he}B should undercut MH-10 {mh10}B");
        assert!(hm > 2 * he, "HmSearch {hm}B should dwarf HEngine {he}B");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_complete_within_guarantee(seed in any::<u64>(), h in 0u32..4, s in 0usize..3) {
            let (scheme, t) = AT_H3[s];
            let data = random_dataset(120, 28, seed);
            let idx = build(scheme, t, &data);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
            let q = BinaryCode::random(28, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, &format!("{scheme:?}"));
        }
    }
}
