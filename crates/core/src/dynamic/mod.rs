//! The Dynamic HA-Index (§4.4–4.7) — the paper's primary contribution.
//!
//! Codes are sorted in **Gray order** (clustering property, Prop. 2) and a
//! sliding window extracts the maximal **FLSSeq** each window shares; the
//! shared pattern becomes a parent node and the members keep only their
//! *residual* bits. Repeating the extraction level by level yields a forest
//! whose key invariant is:
//!
//! > Along every root-to-leaf path, node patterns have pairwise **disjoint
//! > masks whose union covers all L bit positions** — so the sum of masked
//! > distances along a path is the *exact* Hamming distance of the leaf
//! > code, and any prefix sum is a lower bound (Prop. 1, downward closure).
//!
//! [`search`](DynamicHaIndex::search) (H-Search, Algorithm 3) walks the
//! forest breadth-first, pruning a whole subtree the moment its accumulated
//! lower bound exceeds the threshold. Build, insert, delete and merge live
//! in the sibling modules:
//!
//! * `build` — H-Build (Algorithm 1), bulk loading;
//! * `search` — H-Search plus the execution-trace variant behind Table 3;
//! * `maintain` — H-Insert / H-Delete (Algorithm 2) and the insert buffer;
//! * `merge` — combining per-partition indexes into the global HA-Index
//!   used by the MapReduce join (§5.2).

mod build;
mod flat;
mod maintain;
mod merge;
mod node;
mod search;
mod serialize;

pub use flat::FlatHaIndex;
pub use search::{TraceEvent, TraceStep};
pub use serialize::DecodeError;

pub(crate) use build::{bulk_freeze, GrayOrder};

use std::collections::HashMap;

use ha_bitcode::BinaryCode;

use crate::memory::{map_bytes, vec_bytes, MemoryReport};
use crate::{HammingIndex, MutableIndex, TupleId};

pub(crate) use node::{Node, NodeId};

/// Tuning knobs of the Dynamic HA-Index (the Figure 8 parameters).
#[derive(Clone, Debug)]
pub struct DhaConfig {
    /// Sliding-window size `w` of H-Build: how many adjacent (in Gray
    /// order) nodes are examined for a shared FLSSeq per window.
    pub window: usize,
    /// Maximum index depth `md`: number of extraction levels above the
    /// leaves.
    pub max_depth: usize,
    /// Keep per-leaf tuple-id lists (the leaf hash table of §4.5). The
    /// leafless variant (`false`) is Option B of the MapReduce join: search
    /// returns qualifying *codes* and ids are resolved by a post-join.
    pub keep_leaf_ids: bool,
    /// H-Insert buffers codes that share no FLSSeq with an existing leaf;
    /// when the buffer reaches this size it is bulk-built and merged in.
    pub insert_buffer_cap: usize,
}

impl Default for DhaConfig {
    fn default() -> Self {
        DhaConfig {
            window: 8,
            max_depth: 8,
            keep_leaf_ids: true,
            insert_buffer_cap: 256,
        }
    }
}

/// The Dynamic HA-Index.
#[derive(Clone, Debug)]
pub struct DynamicHaIndex {
    pub(crate) code_len: usize,
    pub(crate) nodes: Vec<Node>,
    /// Top-level entries of the forest (Algorithm 3 starts here).
    pub(crate) roots: Vec<NodeId>,
    /// Distinct full code → leaf node (the leaf hash table; present iff
    /// `config.keep_leaf_ids`).
    pub(crate) leaves: HashMap<BinaryCode, NodeId>,
    /// Pending inserts not yet reflected in the tree (searched linearly).
    pub(crate) buffer: Vec<(BinaryCode, TupleId)>,
    pub(crate) config: DhaConfig,
    pub(crate) len: usize,
    /// Mutation epoch: bumped by every successful H-Insert / H-Delete /
    /// buffer flush / merge. Serving layers key result-cache validity on
    /// this counter — two searches at the same epoch are guaranteed to see
    /// the same result set, so a cached answer tagged with the epoch it
    /// was computed at can be reused exactly until the next mutation.
    pub(crate) epoch: u64,
    /// Frozen search snapshot compiled by [`DynamicHaIndex::freeze`];
    /// consulted by every search entry point while its epoch still matches
    /// `epoch`, silently bypassed (arena BFS) once a mutation lands.
    pub(crate) flat: Option<FlatHaIndex>,
}

impl DynamicHaIndex {
    /// Bulk-loads with the default configuration (H-Build).
    ///
    /// ```
    /// use ha_core::{DynamicHaIndex, HammingIndex};
    /// use ha_bitcode::BinaryCode;
    ///
    /// // The paper's running example (Table 2a)…
    /// let codes: Vec<(BinaryCode, u64)> = [
    ///     "001001010", "001011101", "011001100", "101001010",
    ///     "101110110", "101011101", "101101010", "111001100",
    /// ].iter().enumerate().map(|(i, s)| (s.parse().unwrap(), i as u64)).collect();
    /// let index = DynamicHaIndex::build(codes);
    ///
    /// // …answers Example 1: Hamming-select with q = 101100010, h = 3.
    /// let query: BinaryCode = "101100010".parse().unwrap();
    /// let mut hits = index.search(&query, 3);
    /// hits.sort_unstable();
    /// assert_eq!(hits, vec![0, 3, 4, 6]);
    /// ```
    pub fn build(items: impl IntoIterator<Item = (BinaryCode, TupleId)>) -> Self {
        Self::build_with(items, DhaConfig::default())
    }

    /// Bulk-loads with an explicit configuration.
    pub fn build_with(
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
        config: DhaConfig,
    ) -> Self {
        build::h_build(items, config)
    }

    /// H-Build over codes stored as flat rows (`code_len.div_ceil(64)`
    /// words each, `ids[i]` the id of row `i`) and their rank sort, which
    /// the caller already took (the planner's profile needs it first):
    /// `order` must be `GrayOrder::sort_rows` of `rows`. Builds exactly
    /// what [`DynamicHaIndex::build_with`] builds from the same pairs in
    /// row order, and an empty `code_len`-bit index from none.
    pub(crate) fn build_rows(
        code_len: usize,
        rows: &[u64],
        ids: &[TupleId],
        order: &GrayOrder,
        config: DhaConfig,
    ) -> Self {
        build::h_build_rows(code_len, rows, ids, order, config)
    }

    /// Empty index for `code_len`-bit codes.
    pub fn empty(code_len: usize, config: DhaConfig) -> Self {
        DynamicHaIndex {
            code_len,
            nodes: Vec::new(),
            roots: Vec::new(),
            leaves: HashMap::new(),
            buffer: Vec::new(),
            config,
            len: 0,
            epoch: 0,
            flat: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DhaConfig {
        &self.config
    }

    /// Mutation epoch of the index: 0 at construction, incremented by every
    /// successful [`MutableIndex::insert`] / [`MutableIndex::delete`],
    /// buffer [`flush`](DynamicHaIndex::flush), and
    /// [`merge_from`](DynamicHaIndex::merge_from). Searches at equal epochs
    /// observe identical contents, which is what makes epoch-tagged result
    /// caching (the HA-Serve layer) exact rather than best-effort.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterates every stored `(code, id)` pair: the leaf id lists plus the
    /// insert buffer. Yields nothing useful for a leafless index (Option B
    /// drops the ids) — callers re-sharding an index should check
    /// [`DhaConfig::keep_leaf_ids`] first.
    pub fn items(&self) -> impl Iterator<Item = (BinaryCode, TupleId)> + '_ {
        self.item_refs().map(|(code, id)| (code.clone(), id))
    }

    /// [`DynamicHaIndex::items`] with the codes borrowed.
    pub(crate) fn item_refs(&self) -> impl Iterator<Item = (&BinaryCode, TupleId)> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| n.leaf.as_ref())
            .flat_map(|leaf| leaf.ids.iter().map(move |&id| (&leaf.code, id)))
            .chain(self.buffer.iter().map(|(code, id)| (code, *id)))
    }

    /// Number of live internal (non-leaf) nodes — |V| of the §4.7 analysis.
    pub fn internal_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive && n.leaf.is_none())
            .count()
    }

    /// Number of live leaf nodes (distinct codes).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.alive && n.leaf.is_some())
            .count()
    }

    /// Depth of the forest (longest root-to-leaf path, in edges).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: NodeId) -> usize {
            let n = &nodes[id as usize];
            1 + n
                .children
                .iter()
                .map(|&c| depth_of(nodes, c))
                .max()
                .unwrap_or(0)
        }
        self.roots
            .iter()
            .map(|&r| depth_of(&self.nodes, r))
            .max()
            .unwrap_or(0)
    }

    /// Search returning the qualifying distinct **codes** and their exact
    /// distances — works in both leafy and leafless modes (Option B of the
    /// MapReduce join resolves ids afterwards).
    pub fn search_codes(&self, query: &BinaryCode, h: u32) -> Vec<(BinaryCode, u32)> {
        if let Some(f) = self.flat() {
            return f.search_codes(query, h);
        }
        search::h_search_codes(self, query, h)
    }

    /// Search returning `(id, exact Hamming distance)` pairs. The distance
    /// comes straight off the root-to-leaf path sum (the masks partition
    /// the bit positions), so ranking costs nothing extra — this is what
    /// the kNN layers build on.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        if let Some(f) = self.flat() {
            return f.search_with_distances(query, h);
        }
        search::h_search_with_distances(self, query, h)
    }

    /// H-Search with a recorded execution trace (the Table 3
    /// reproduction). Returns the qualifying ids plus one [`TraceStep`] per
    /// BFS round. Always runs over the arena, frozen or not: the snapshot
    /// keeps no leaf patterns to render.
    pub fn search_trace(&self, query: &BinaryCode, h: u32) -> (Vec<TupleId>, Vec<TraceStep>) {
        search::h_search_trace(self, query, h)
    }

    /// Flushes the insert buffer into the tree (also done automatically
    /// when the buffer reaches `insert_buffer_cap`).
    pub fn flush(&mut self) {
        maintain::flush_buffer(self);
    }

    /// Compiles (or revalidates) the frozen search snapshot: flushes the
    /// insert buffer, compacts dead arena slots away, and builds the
    /// CSR/SoA [`FlatHaIndex`] every search entry point will use until the
    /// next mutation. Idempotent while the epoch is unchanged.
    ///
    /// ```
    /// use ha_core::{DynamicHaIndex, HammingIndex, MutableIndex};
    /// use ha_bitcode::BinaryCode;
    ///
    /// let mut index = DynamicHaIndex::build(
    ///     (0..64u64).map(|i| (BinaryCode::from_u64(i, 16), i)));
    /// index.freeze();
    /// assert!(index.flat_is_current());
    /// let hits = index.search(&BinaryCode::from_u64(7, 16), 1); // flat path
    ///
    /// index.insert(BinaryCode::from_u64(99, 16), 99);
    /// assert!(!index.flat_is_current()); // arena path until re-frozen
    /// ```
    pub fn freeze(&mut self) -> &FlatHaIndex {
        let flat = self.take_frozen();
        self.flat.insert(flat)
    }

    /// [`DynamicHaIndex::freeze`]'s snapshot, moved out of the index: the
    /// current one if installed, else a fresh compile. The index keeps no
    /// snapshot afterwards.
    pub(crate) fn take_frozen(&mut self) -> FlatHaIndex {
        maintain::flush_buffer(self);
        match self.take_current_snapshot() {
            Some(flat) => flat,
            None => self.compile(),
        }
    }

    /// The installed snapshot, moved out of the index, if it is current.
    pub(crate) fn take_current_snapshot(&mut self) -> Option<FlatHaIndex> {
        self.flat.take().filter(|f| f.epoch() == self.epoch)
    }

    /// Compacts dead slots away and compiles a snapshot of the flushed
    /// arena.
    fn compile(&mut self) -> FlatHaIndex {
        let dropped = self.compact();
        ha_obs::add("core.flat.compacted_nodes", dropped as u64);
        flat::compile(self, self.epoch)
    }

    /// Freezes (if stale) and serializes the flat snapshot into the
    /// persistent HA-Store wire format — the durable blob generational
    /// serving publishes, re-openable zero-copy via
    /// `ha_store::HaStore::open_bytes` / `open_file` with no decode step.
    pub fn write_store(&mut self) -> Vec<u8> {
        self.freeze().store_bytes()
    }

    /// Drops the frozen snapshot (if any), forcing searches back onto the
    /// arena BFS and releasing the snapshot's memory.
    pub fn thaw(&mut self) {
        self.flat = None;
    }

    /// The frozen snapshot, if one exists *and* still reflects the current
    /// epoch. This is the dispatch predicate of every search entry point.
    pub fn flat(&self) -> Option<&FlatHaIndex> {
        self.flat.as_ref().filter(|f| f.epoch() == self.epoch)
    }

    /// True if searches are currently served from the frozen layout.
    pub fn flat_is_current(&self) -> bool {
        self.flat().is_some()
    }

    /// Iterates every live stored code (leaf codes plus buffered inserts),
    /// one per distinct code, **without** ids — works in leafless mode
    /// too, unlike [`DynamicHaIndex::items`]. The planner samples this to
    /// estimate dataset clusteredness.
    pub fn leaf_codes(&self) -> impl Iterator<Item = &BinaryCode> + Clone + '_ {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| n.leaf.as_ref())
            .map(|leaf| &leaf.code)
            .chain(self.buffer.iter().map(|(code, _)| code))
    }

    /// Number of dead (`!alive`) slots lingering in the arena — what the
    /// next [`DynamicHaIndex::freeze`] will compact away.
    pub fn dead_slots(&self) -> usize {
        self.nodes.iter().filter(|n| !n.alive).count()
    }

    /// Drops dead arena slots and remaps every live reference. Dead nodes
    /// are provably unreferenced by live ones (H-Delete unlinks bottom-up;
    /// merge only grafts live subtrees), so compaction is a stable filter
    /// plus id remap — the observable result set is unchanged and the
    /// epoch stays put. Returns the number of slots dropped.
    fn compact(&mut self) -> usize {
        let dead = self.dead_slots();
        if dead == 0 {
            return 0;
        }
        let mut remap = vec![NodeId::MAX; self.nodes.len()];
        let mut kept: Vec<Node> = Vec::with_capacity(self.nodes.len() - dead);
        for (i, n) in self.nodes.drain(..).enumerate() {
            if n.alive {
                remap[i] = kept.len() as NodeId;
                kept.push(n);
            }
        }
        for n in &mut kept {
            for c in &mut n.children {
                debug_assert_ne!(remap[*c as usize], NodeId::MAX, "live child of live node");
                *c = remap[*c as usize];
            }
        }
        self.nodes = kept;
        for r in &mut self.roots {
            *r = remap[*r as usize];
        }
        for v in self.leaves.values_mut() {
            *v = remap[*v as usize];
        }
        dead
    }

    /// Merges `other` into `self` (global HA-Index construction, §5.2).
    /// Non-leaf nodes with identical FLSSeq patterns are consolidated and
    /// their subtrees merged recursively, so shared patterns across
    /// partitions are verified once at query time.
    pub fn merge_from(&mut self, other: DynamicHaIndex) {
        merge::merge_into(self, other);
    }

    /// Merges a set of per-partition indexes into one global index.
    ///
    /// ```
    /// use ha_core::{DynamicHaIndex, HammingIndex};
    /// use ha_bitcode::BinaryCode;
    ///
    /// // Two partitions, built independently (the distributed H-Build)…
    /// let lo = DynamicHaIndex::build(
    ///     (0..32u64).map(|i| (BinaryCode::from_u64(i, 12), i)));
    /// let hi = DynamicHaIndex::build(
    ///     (32..64u64).map(|i| (BinaryCode::from_u64(i, 12), i)));
    ///
    /// // …merge into the global index; searches now span both.
    /// let global = DynamicHaIndex::merge_all(vec![lo, hi]);
    /// assert_eq!(global.len(), 64);
    /// let mut hits = global.search(&BinaryCode::from_u64(33, 12), 1);
    /// hits.sort_unstable();
    /// assert_eq!(hits, vec![1, 32, 33, 35, 37, 41, 49]); // one bit away
    /// ```
    ///
    /// # Panics
    /// If `parts` is empty.
    pub fn merge_all(parts: Vec<DynamicHaIndex>) -> DynamicHaIndex {
        let mut iter = parts.into_iter();
        let mut acc = iter.next().expect("merge_all needs at least one index");
        for p in iter {
            acc.merge_from(p);
        }
        acc
    }

    /// Itemized memory usage; `payload_bytes` carries the leaf id lists +
    /// leaf hash table (the part the leafless variant saves — the
    /// `28/11` style split of Table 4).
    pub fn memory_report(&self) -> MemoryReport {
        let mut structure = vec_bytes(&self.nodes) + vec_bytes(&self.roots);
        let mut codes = 0usize;
        let mut payload = map_bytes(&self.leaves);
        for n in &self.nodes {
            structure += vec_bytes(&n.children);
            codes += n.pattern.heap_bytes();
            if let Some(leaf) = &n.leaf {
                codes += leaf.code.heap_bytes();
                payload += vec_bytes(&leaf.ids);
            }
        }
        payload += self.leaves.keys().map(|c| c.heap_bytes()).sum::<usize>();
        MemoryReport {
            structure_bytes: structure,
            code_bytes: codes,
            payload_bytes: payload,
        }
    }

    /// Serialized wire size of the index — what broadcasting it through a
    /// distributed cache costs (§5.4: "the internal nodes of the HA-Index
    /// store enough binary information for the whole dataset, and hence
    /// introduce low overhead to broadcast"). Counts, per live node, the
    /// packed pattern (bits + mask), the frequency, and the child links;
    /// for leaves the packed full code; and the leaf id lists only when
    /// `include_leaf_ids` (Option A ships them, Option B does not).
    pub fn serialized_bytes(&self, include_leaf_ids: bool) -> usize {
        let code_bytes = self.code_len.div_ceil(8);
        let mut total = 0usize;
        for n in self.nodes.iter().filter(|n| n.alive) {
            total += 2 + 2 * code_bytes; // pattern: bits + mask
            total += 4; // frequency
            total += 4 * n.children.len(); // edges
            if let Some(leaf) = &n.leaf {
                total += 2 + code_bytes; // full leaf code
                if include_leaf_ids {
                    total += 8 * leaf.ids.len();
                }
            }
        }
        total += self
            .buffer
            .iter()
            .map(|(c, _)| 2 + c.len().div_ceil(8) + 8)
            .sum::<usize>();
        total
    }

    /// Fallible structural validation: every root-to-leaf chain must have
    /// disjoint masks whose union is the full bit range, and the combined
    /// pattern must reconstruct the leaf's code exactly. Frequencies must
    /// be conserved: an internal node's is the sum of its children's, and
    /// a leaf that keeps ids counts exactly those ids. Used by the
    /// wire-format decoder to reject corrupt blobs without panicking.
    pub fn try_check_invariants(&self) -> Result<(), &'static str> {
        use ha_bitcode::MaskedCode;
        fn walk(
            idx: &DynamicHaIndex,
            id: NodeId,
            acc: &MaskedCode,
            depth: usize,
        ) -> Result<(), &'static str> {
            if depth > idx.nodes.len() {
                return Err("cycle in node graph");
            }
            let n = &idx.nodes[id as usize];
            if !acc.mask().is_disjoint(n.pattern.mask()) {
                return Err("path masks overlap");
            }
            let acc = acc.combine(&n.pattern);
            if let Some(leaf) = &n.leaf {
                if !n.children.is_empty() {
                    return Err("leaf with children");
                }
                if acc.mask() != &BinaryCode::ones(idx.code_len) {
                    return Err("leaf path does not cover all bits");
                }
                if acc.bits() != &leaf.code {
                    return Err("path does not spell the leaf code");
                }
                if idx.config.keep_leaf_ids && n.frequency as usize != leaf.ids.len() {
                    return Err("leaf frequency is not its id count");
                }
            } else {
                if n.children.is_empty() {
                    return Err("dead-end internal node");
                }
                let mut sum = 0u64;
                for &c in &n.children {
                    walk(idx, c, &acc, depth + 1)?;
                    sum += u64::from(idx.nodes[c as usize].frequency);
                }
                if sum != u64::from(n.frequency) {
                    return Err("internal frequency is not its children's sum");
                }
            }
            Ok(())
        }
        let empty = MaskedCode::empty(self.code_len.max(1));
        for &r in &self.roots {
            walk(self, r, &empty, 0)?;
        }
        Ok(())
    }

    /// Panicking form of [`DynamicHaIndex::try_check_invariants`], used
    /// throughout the test suite.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        if let Err(what) = self.try_check_invariants() {
            panic!("HA-Index invariant violated: {what}");
        }
    }
}

impl HammingIndex for DynamicHaIndex {
    fn name(&self) -> &'static str {
        "DHA-Index"
    }

    fn len(&self) -> usize {
        self.len + self.buffer.len()
    }

    fn code_len(&self) -> usize {
        self.code_len
    }

    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        if let Some(f) = self.flat() {
            return f.search(query, h);
        }
        search::h_search(self, query, h)
    }

    fn memory_bytes(&self) -> usize {
        self.memory_report().total()
    }
}

impl MutableIndex for DynamicHaIndex {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        maintain::h_insert(self, code, id);
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        maintain::h_delete(self, code, id)
    }
}
