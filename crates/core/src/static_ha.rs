//! Static HA-Index (§4.3): share fixed-length *segments* across codes.
//!
//! Codes are cut into fixed-width contiguous segments. Equal segment values
//! at the same offset become one shared vertex; each code is a path through
//! one vertex per level (Figure 2: t2 and t7 share N6 and N11, so the
//! distance of "001"/"100" to the query is computed once for both).
//!
//! Query evaluation makes that sharing explicit: per level, the masked
//! distance of each *distinct* vertex to the query is computed exactly once
//! (`O(distinct vertices)` XORs instead of `O(n)`); per code, the
//! precomputed per-vertex distances are summed with early exit — the
//! downward-closure prune of Proposition 1 applied level by level.
//!
//! The known weakness (§4.3, remedied by the Dynamic HA-Index): common bit
//! substrings that do not align to segment boundaries are invisible, and
//! FLSSeq (non-contiguous) sharing is impossible.

use std::collections::HashMap;

use ha_bitcode::segment::Segmentation;
use ha_bitcode::BinaryCode;

use crate::memory::{map_bytes, vec_bytes, MemoryReport};
use crate::{HammingIndex, MutableIndex, TupleId};

/// One level of the segment graph: the distinct segment values at one
/// offset, plus an interning map used during build/maintenance.
#[derive(Clone, Debug)]
struct Level {
    /// Distinct segment values; a "vertex" is an index into this array.
    values: Vec<u64>,
    /// Tuples passing through each vertex (for maintenance GC).
    refcount: Vec<u32>,
    /// value → vertex index.
    intern: HashMap<u64, u32>,
}

impl Level {
    fn new() -> Self {
        Level {
            values: Vec::new(),
            refcount: Vec::new(),
            intern: HashMap::new(),
        }
    }

    fn intern(&mut self, value: u64) -> u32 {
        match self.intern.entry(value) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let idx = *e.get();
                self.refcount[idx as usize] += 1;
                idx
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let idx = self.values.len() as u32;
                self.values.push(value);
                self.refcount.push(1);
                e.insert(idx);
                idx
            }
        }
    }
}

/// A distinct code: its path through the levels plus the tuple ids bearing
/// that code.
#[derive(Clone, Debug)]
struct PathEntry {
    vertices: Vec<u32>, // one per level
    ids: Vec<TupleId>,
}

/// The Static HA-Index.
#[derive(Clone, Debug)]
pub struct StaticHaIndex {
    code_len: usize,
    seg: Segmentation,
    levels: Vec<Level>,
    paths: Vec<PathEntry>,
    /// full code → path index (distinct codes are stored once).
    code_to_path: HashMap<BinaryCode, u32>,
    len: usize,
}

/// Default segment width when none is given: √L rounded to a byte-ish
/// size — the paper's example uses 3-bit segments on 9-bit codes; for the
/// evaluated 32/64-bit codes, 8-bit segments are the natural choice.
fn default_width(code_len: usize) -> usize {
    ((code_len as f64).sqrt().round() as usize).clamp(2, 16).min(code_len)
}

impl StaticHaIndex {
    /// Empty index with an explicit segment width.
    fn with_segment_width(code_len: usize, width: usize) -> Self {
        let seg = Segmentation::with_width(code_len, width);
        StaticHaIndex {
            code_len,
            levels: (0..seg.count()).map(|_| Level::new()).collect(),
            seg,
            paths: Vec::new(),
            code_to_path: HashMap::new(),
            len: 0,
        }
    }

    /// Empty index with the default segment width (≈ √L bits).
    pub fn new(code_len: usize) -> Self {
        Self::with_segment_width(code_len, default_width(code_len))
    }

    /// Builds from `(code, id)` pairs with the default width.
    ///
    /// ```
    /// use ha_bitcode::BinaryCode;
    /// use ha_core::{HammingIndex, StaticHaIndex};
    ///
    /// let index = StaticHaIndex::build(
    ///     (0..32u64).map(|i| (BinaryCode::from_u64(i, 16), i)));
    /// let mut hits = index.search(&BinaryCode::from_u64(3, 16), 1);
    /// hits.sort_unstable();
    /// assert_eq!(hits, vec![1, 2, 3, 7, 11, 19]); // 3 and its 1-bit flips
    /// ```
    pub fn build(items: impl IntoIterator<Item = (BinaryCode, TupleId)>) -> Self {
        let mut iter = items.into_iter().peekable();
        let code_len = iter
            .peek()
            .map(|(c, _)| c.len())
            .expect("StaticHaIndex::build needs at least one item");
        let mut idx = Self::new(code_len);
        for (code, id) in iter {
            idx.insert(code, id);
        }
        idx
    }

    /// Itemized memory usage.
    pub fn memory_report(&self) -> MemoryReport {
        let structure: usize = self
            .levels
            .iter()
            .map(|l| vec_bytes(&l.values) + vec_bytes(&l.refcount) + map_bytes(&l.intern))
            .sum::<usize>()
            + vec_bytes(&self.paths)
            + self
                .paths
                .iter()
                .map(|p| vec_bytes(&p.vertices))
                .sum::<usize>();
        let code_heap: usize = self
            .code_to_path
            .keys()
            .map(|c| c.heap_bytes())
            .sum::<usize>()
            + map_bytes(&self.code_to_path);
        let payload: usize = self.paths.iter().map(|p| vec_bytes(&p.ids)).sum();
        MemoryReport {
            structure_bytes: structure,
            code_bytes: code_heap,
            payload_bytes: payload,
        }
    }
}

impl HammingIndex for StaticHaIndex {
    fn name(&self) -> &'static str {
        "SHA-Index"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn code_len(&self) -> usize {
        self.code_len
    }

    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        assert_eq!(query.len(), self.code_len, "query length mismatch");
        // Phase 1 — the shared work: distance of every distinct vertex to
        // the query, once per vertex (not once per tuple).
        let dists: Vec<Vec<u32>> = self
            .levels
            .iter()
            .enumerate()
            .map(|(l, level)| {
                let q = self.seg.extract(query, l);
                level.values.iter().map(|&v| (q ^ v).count_ones()).collect()
            })
            .collect();
        // Phase 2 — per-path accumulation with early exit.
        let mut out = Vec::new();
        'paths: for path in &self.paths {
            let mut acc = 0u32;
            for (l, &v) in path.vertices.iter().enumerate() {
                acc += dists[l][v as usize];
                if acc > h {
                    continue 'paths;
                }
            }
            out.extend_from_slice(&path.ids);
        }
        out
    }

    fn memory_bytes(&self) -> usize {
        self.memory_report().total()
    }
}

impl MutableIndex for StaticHaIndex {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        assert_eq!(code.len(), self.code_len, "code length mismatch");
        if let Some(&p) = self.code_to_path.get(&code) {
            self.paths[p as usize].ids.push(id);
            // Refcounts follow tuples, not distinct codes.
            for (l, &v) in self.paths[p as usize].vertices.iter().enumerate() {
                self.levels[l].refcount[v as usize] += 1;
            }
        } else {
            let vertices: Vec<u32> = (0..self.seg.count())
                .map(|l| {
                    let value = self.seg.extract(&code, l);
                    self.levels[l].intern(value)
                })
                .collect();
            let p = self.paths.len() as u32;
            self.paths.push(PathEntry {
                vertices,
                ids: vec![id],
            });
            self.code_to_path.insert(code, p);
        }
        self.len += 1;
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        let Some(&p) = self.code_to_path.get(code) else {
            return false;
        };
        let path = &mut self.paths[p as usize];
        let Some(pos) = path.ids.iter().position(|&x| x == id) else {
            return false;
        };
        path.ids.swap_remove(pos);
        let vertices = path.vertices.clone();
        let now_empty = path.ids.is_empty();
        for (l, &v) in vertices.iter().enumerate() {
            self.levels[l].refcount[v as usize] -= 1;
        }
        if now_empty {
            // Keep the vertex arrays intact (vertex indices are stable);
            // zero-ref vertices are skipped naturally because no path
            // references them. Remove the path from the code map; the
            // PathEntry slot stays but matches nothing.
            self.code_to_path.remove(code);
            self.paths[p as usize].vertices.clear();
        }
        self.len -= 1;
        true
    }
}

#[cfg(test)]
impl StaticHaIndex {
    /// Builds with an explicit segment width (the ablation knob).
    fn build_with_width(
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
        width: usize,
    ) -> Self {
        let mut iter = items.into_iter().peekable();
        let code_len = iter
            .peek()
            .map(|(c, _)| c.len())
            .expect("StaticHaIndex::build needs at least one item");
        let mut idx = Self::with_segment_width(code_len, width);
        for (code, id) in iter {
            idx.insert(code, id);
        }
        idx
    }

    /// Number of distinct vertices across all levels — the sharing the
    /// structure achieves (|V| of §4.7).
    fn vertex_count(&self) -> usize {
        self.levels.iter().map(|l| l.values.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, clustered_dataset, paper_table_s, random_dataset};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_example_select() {
        let data = paper_table_s();
        let idx = StaticHaIndex::build_with_width(data.clone(), 3);
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "sha");
    }

    #[test]
    fn paper_figure_2_vertex_sharing() {
        // With 3-bit segments over Table 2a, t2 = 011|001|100 and
        // t7 = 111|001|100 share the level-1 vertex "001" and the level-2
        // vertex "100"; the 8 codes produce far fewer than 24 vertices.
        let data = paper_table_s();
        let idx = StaticHaIndex::build_with_width(data.clone(), 3);
        assert!(idx.vertex_count() < 24, "vertices: {}", idx.vertex_count());
        // Level 1 has exactly the distinct middle segments:
        // {001, 011, 110, 101} → 4.
        assert_eq!(idx.levels[1].values.len(), 4);
        // Level 2: {010, 101, 100, 110} → 4.
        assert_eq!(idx.levels[2].values.len(), 4);
    }

    #[test]
    fn matches_oracle_on_random_data() {
        let data = random_dataset(300, 32, 13);
        let idx = StaticHaIndex::build(data.clone());
        let mut rng = StdRng::seed_from_u64(4);
        for h in [0, 1, 3, 6, 10, 32] {
            let q = BinaryCode::random(32, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "sha");
        }
    }

    #[test]
    fn matches_oracle_on_clustered_data() {
        let data = clustered_dataset(400, 64, 6, 4, 17);
        let idx = StaticHaIndex::build(data.clone());
        let mut rng = StdRng::seed_from_u64(40);
        for h in [0, 2, 5, 9] {
            // Query near a cluster: take a data code and perturb it.
            let mut q = data[rng.gen_range(0..data.len())].0.clone();
            for _ in 0..3 {
                q.flip(rng.gen_range(0..64));
            }
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "sha-clustered");
        }
    }

    #[test]
    fn various_segment_widths_agree() {
        let data = random_dataset(150, 48, 23);
        let mut rng = StdRng::seed_from_u64(3);
        let q = BinaryCode::random(48, &mut rng);
        let reference = crate::testkit::oracle_select(&data, &q, 5);
        for width in [2, 3, 5, 8, 12, 16, 48] {
            let idx = StaticHaIndex::build_with_width(data.clone(), width.min(48));
            let mut got = idx.search(&q, 5);
            got.sort_unstable();
            assert_eq!(got, reference, "width {width}");
        }
    }

    #[test]
    fn clustered_data_shares_vertices() {
        // Clustered codes must intern far fewer vertices than tuples.
        let data = clustered_dataset(1000, 32, 5, 2, 7);
        let idx = StaticHaIndex::build_with_width(data, 8);
        assert!(
            idx.vertex_count() < 400,
            "expected heavy sharing, got {} vertices",
            idx.vertex_count()
        );
    }

    #[test]
    fn insert_delete_roundtrip() {
        let data = random_dataset(120, 32, 31);
        let mut idx = StaticHaIndex::build(data.clone());
        let (code, id) = data[7].clone();
        assert!(idx.delete(&code, id));
        assert!(!idx.delete(&code, id));
        assert!(!idx.search(&code, 0).contains(&id));
        idx.insert(code.clone(), id);
        assert!(idx.search(&code, 0).contains(&id));
        let mut rng = StdRng::seed_from_u64(8);
        let q = BinaryCode::random(32, &mut rng);
        assert_matches_oracle(idx.search(&q, 4), &data, &q, 4, "sha-after-update");
    }

    #[test]
    fn duplicate_codes_share_one_path() {
        let c: BinaryCode = "10101010".parse().unwrap();
        let mut idx = StaticHaIndex::with_segment_width(8, 4);
        idx.insert(c.clone(), 1);
        idx.insert(c.clone(), 2);
        assert_eq!(idx.paths.len(), 1, "one distinct code, one path");
        let mut got = idx.search(&c, 0);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(idx.delete(&c, 1));
        assert_eq!(idx.search(&c, 0), vec![2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_sha_equals_oracle(seed in any::<u64>(), h in 0u32..12, width in 2usize..12) {
            let data = random_dataset(100, 30, seed);
            let idx = StaticHaIndex::build_with_width(data.clone(), width);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5555);
            let q = BinaryCode::random(30, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "sha-prop");
        }
    }
}
