//! H-Build (Algorithm 1): bulk-loading the Dynamic HA-Index.
//!
//! 1. Group tuples by distinct code and sort the codes in **Gray order**
//!    (non-decreasing Gray rank) so neighbours share long FLSSeqs.
//! 2. Slide a `w`-slot window over the current level; each window's members
//!    either share a non-vacuous maximal FLSSeq — which becomes their
//!    parent, the members keeping only residual bits — or they are linked
//!    to the top level of the index directly (Algorithm 1 line 16).
//! 3. Algorithm 1 merges parents with identical patterns (lines 6–11).
//!    Under these windows no two parents of one level can share a
//!    pattern: a level's windows cover disjoint runs of one Gray order,
//!    and an equal pattern would put both across the same split of one
//!    prefix block (DESIGN.md "Bulk-load to frozen";
//!    `tests::parents_of_one_height_never_share_a_pattern`). So every
//!    window makes its own parent and nothing is merged.
//! 4. Repeat on the freshly created parents until the requested depth is
//!    reached or no further sharing exists; whatever remains forms the top
//!    level.
//!
//! Steps 2–4 run once, in [`extract_levels`], over either of two node
//! stores ([`NodeStore`]): the arena of a [`DynamicHaIndex`], which
//! H-Insert / H-Delete mutate later, or a [`BuildForest`] — every internal
//! node's pattern words in one flat array, leaves read off the stored rows
//! and holding no pattern — which [`bulk_freeze`] compiles straight to a
//! frozen snapshot for an index that is never mutated.

use ha_bitcode::gray::{gray_cmp_words, gray_rank_head};
use ha_bitcode::{BinaryCode, MaskedCode};

use super::flat::{self, ForestSizes, ForestView};
use super::{DhaConfig, DynamicHaIndex, FlatHaIndex, Node, NodeId};
use crate::memory::seed_bulk;
use crate::TupleId;

/// H-Build (`build` / `build_with`): stores the codes' words once as flat
/// rows, sorts them ([`GrayOrder`]) and builds over them
/// ([`h_build_rows`]).
pub(super) fn h_build(
    items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    config: DhaConfig,
) -> DynamicHaIndex {
    let mut items = items.into_iter().peekable();
    let Some(code_len) = items.peek().map(|(c, _)| c.len()) else {
        return DynamicHaIndex::empty(0, config);
    };
    let stride = code_len.div_ceil(64);
    let (rows, _) = items.size_hint();
    let mut words = Vec::with_capacity(rows * stride);
    let mut ids = Vec::with_capacity(rows);
    for (code, id) in items {
        assert_eq!(code.len(), code_len, "mixed code lengths");
        words.extend_from_slice(code.words());
        ids.push(id);
    }
    let order = GrayOrder::sort_rows(&words, code_len, Vec::with_capacity(ids.len()));
    h_build_rows(code_len, &words, &ids, &order, config)
}

/// H-Build over `code_len`-bit codes stored as consecutive rows of `rows`
/// (`code_len.div_ceil(64)` words each) with `ids[i]` the id of row `i`,
/// and over their sort `order` (`GrayOrder::sort_rows` of those rows),
/// which a caller that needed it first (the planner samples its distinct
/// codes) passes on, so the rank sort runs once. No rows builds an empty
/// `code_len`-bit index.
pub(super) fn h_build_rows(
    code_len: usize,
    rows: &[u64],
    ids: &[TupleId],
    order: &GrayOrder,
    config: DhaConfig,
) -> DynamicHaIndex {
    let mut idx = DynamicHaIndex::empty(code_len, config);
    idx.len = ids.len();
    let leaves = {
        let _span = ha_obs::span("core.hbuild.leaves");
        append_leaves(&mut idx, rows, ids, order)
    };
    // Extraction levels (lines 3–24).
    let _span = ha_obs::span("core.hbuild.levels");
    let (window, max_depth) = (idx.config.window, idx.config.max_depth);
    extract_levels(&mut idx, window, max_depth, leaves);
    idx
}

/// The frozen snapshot `DynamicHaIndex::build_with(…).freeze()` makes of
/// the rows [`h_build_rows`] takes, built without the arena: H-Build runs
/// over a [`BuildForest`], which [`flat::compile`] reads like an arena
/// and which is dropped once the snapshot is compiled. With tracing on,
/// the phases are `core.hbuild.leaves`, `core.hbuild.levels` and
/// `core.plan.freeze` (the compile).
pub(crate) fn bulk_freeze(
    code_len: usize,
    rows: &[u64],
    ids: &[TupleId],
    order: &GrayOrder,
    config: &DhaConfig,
) -> FlatHaIndex {
    let mut forest = {
        let _span = ha_obs::span("core.hbuild.leaves");
        BuildForest::leaves(code_len, rows, ids, order, config)
    };
    {
        let _span = ha_obs::span("core.hbuild.levels");
        let leaves = (0..forest.leaves as NodeId).collect();
        extract_levels(&mut forest, config.window, config.max_depth, leaves);
    }
    let _span = ha_obs::span("core.plan.freeze");
    flat::compile(&forest, 0)
}

/// Algorithm 1 line 1 as a sort: one `(key, input position)` pair per
/// tuple, in order. Keys rise in Gray order and are equal exactly for
/// equal codes (the rank is a bijection); positions rise within a key, so
/// each code's ids keep their input order.
///
/// The sort reads the codes as flat rows of words and first orders the
/// pairs by `(rank head, position)`, the head being the rank's first word
/// ([`gray_rank_head`]). A code of at most 64 bits is its head: the pairs
/// are distinct, so `sort_unstable` yields exactly the `(rank, position)`
/// order. For a wider code each run of equal heads is settled on the
/// whole rank ([`gray_cmp_words`], read off the rows without decoding
/// them), and the key becomes the ordinal of the rank's run.
/// (An LSD radix sort of the `u64` pairs measured no faster than
/// `sort_unstable`: 74–129 ms against 58–100 ms at 10⁶ pairs.)
pub(crate) struct GrayOrder(Vec<(u64, u32)>);

impl GrayOrder {
    /// Sorts the `code_len`-bit codes stored as consecutive rows of `rows`
    /// (`code_len.div_ceil(64)` words each) into `pairs`, an empty buffer
    /// with room for one pair per row. Allocates nothing, so it can run on
    /// a thread that must not. With tracing on, it is the
    /// `core.hbuild.rank_sort` span.
    pub(crate) fn sort_rows(rows: &[u64], code_len: usize, mut pairs: Vec<(u64, u32)>) -> Self {
        let _span = ha_obs::span("core.hbuild.rank_sort");
        let stride = code_len.div_ceil(64);
        pairs.extend(
            rows.chunks_exact(stride)
                .zip(0u32..)
                .map(|(row, i)| (gray_rank_head(row, code_len), i)),
        );
        pairs.sort_unstable();
        if stride > 1 {
            settle_on_full_ranks(&mut pairs, rows, stride);
        }
        GrayOrder(pairs)
    }

    /// One run of pairs per distinct code, in Gray order: H-Build's leaves.
    fn runs(&self) -> impl Iterator<Item = &[(u64, u32)]> + Clone + '_ {
        self.0.chunk_by(|a, b| a.0 == b.0)
    }

    /// The distinct codes of `rows` (the rows this order was sorted from,
    /// `stride` words each) in Gray order: one per leaf, in the order
    /// H-Build lays the leaves out, so the words of exactly what
    /// [`DynamicHaIndex::leaf_codes`] of the built index yields.
    pub(crate) fn distinct_rows<'a>(
        &'a self,
        rows: &'a [u64],
        stride: usize,
    ) -> impl Iterator<Item = &'a [u64]> + Clone + 'a {
        self.runs().map(move |run| &rows[run[0].1 as usize * stride..][..stride])
    }
}

/// Orders each run of equal rank heads in `pairs` by `(rank, position)`
/// and rekeys every pair with the ordinal of its rank's run.
fn settle_on_full_ranks(pairs: &mut [(u64, u32)], rows: &[u64], stride: usize) {
    let row = |i: u32| &rows[i as usize * stride..][..stride];
    for run in pairs.chunk_by_mut(|a, b| a.0 == b.0) {
        if run.len() > 1 {
            run.sort_unstable_by(|a, b| {
                gray_cmp_words(row(a.1), row(b.1)).then(a.1.cmp(&b.1))
            });
        }
    }
    let Some(&(_, mut prev)) = pairs.first() else { return };
    let mut run = 0u64;
    for pair in pairs {
        if row(pair.1) != row(prev) {
            run += 1;
            prev = pair.1;
        }
        pair.0 = run;
    }
}

/// The arena's leaf level (Algorithm 1 line 2), appended to the
/// still-empty arena in Gray order: per run of `order`, one leaf holding
/// the full pattern, the code, the run length as its frequency and — when
/// the config keeps them — the run's ids, collected once at exact length.
/// The leaf hash table is filled in its own pass once the arena is laid
/// out: interleaving the two measured 2× slower at 10⁶ rows. Returns the
/// leaf level.
fn append_leaves(
    idx: &mut DynamicHaIndex,
    rows: &[u64],
    ids: &[TupleId],
    order: &GrayOrder,
) -> Vec<NodeId> {
    let stride = idx.code_len.div_ceil(64);
    let distinct = order.runs().count();
    let keep_ids = idx.config.keep_leaf_ids;
    seed_bulk(&mut idx.nodes, distinct);
    for (run, row) in order.runs().zip(order.distinct_rows(rows, stride)) {
        let code = BinaryCode::from_words(row, idx.code_len);
        let ids = if keep_ids {
            run.iter().map(|&(_, i)| ids[i as usize]).collect()
        } else {
            Vec::new()
        };
        let leaf = Node::leaf(MaskedCode::full(code.clone()), code, ids, run.len() as u32);
        idx.nodes.push(leaf);
    }
    if keep_ids {
        idx.leaves.reserve(distinct);
        for (nid, node) in idx.nodes.iter().enumerate() {
            if let Some(leaf) = &node.leaf {
                idx.leaves.insert(leaf.code.clone(), nid as NodeId);
            }
        }
    }
    (0..distinct as NodeId).collect()
}

/// Where H-Build keeps its nodes while [`extract_levels`] runs. A store
/// does the pattern arithmetic of its own representation; the level
/// algorithm — windows, residuals, the top level — is the one body both
/// stores share.
pub(super) trait NodeStore {
    /// A pattern as the store computes it.
    type Pattern;
    /// The maximal FLSSeq the (at least two) `members` share, or `None`
    /// when it is vacuous.
    fn common(&self, members: &[NodeId]) -> Option<Self::Pattern>;
    /// Line 5's child update: every member keeps only the positions of
    /// its pattern that `common` leaves free.
    fn keep_residuals(&mut self, members: &[NodeId], common: &Self::Pattern);
    /// A new parent with pattern `common` over `children`; returns its id.
    fn push_parent(&mut self, common: &Self::Pattern, children: &[NodeId]) -> NodeId;
    /// Links `nodes` to the top level of the index.
    fn push_roots(&mut self, nodes: &[NodeId]);
}

/// What one window of an extraction level resolved to.
enum WindowPlan<P> {
    /// A lone trailing node just rides up to the next level.
    Ride,
    /// No shared FLSSeq: members link to the top level (line 16).
    TopLevel,
    /// The window shares this pattern: it becomes their parent.
    Extract(P),
}

/// Analyses one window: its maximal shared FLSSeq, when non-vacuous.
fn plan_window<S: NodeStore>(store: &S, members: &[NodeId]) -> WindowPlan<S::Pattern> {
    if members.len() == 1 {
        return WindowPlan::Ride;
    }
    match store.common(members) {
        Some(common) => WindowPlan::Extract(common),
        None => WindowPlan::TopLevel,
    }
}

/// Runs the extraction levels over the leaf level `current`: each level
/// applies its windows in order, then the survivors become the top level.
fn extract_levels<S: NodeStore>(
    store: &mut S,
    window: usize,
    max_depth: usize,
    mut current: Vec<NodeId>,
) {
    let window = window.max(2);
    for _depth in 0..max_depth.max(1) {
        if current.len() <= 1 {
            break;
        }
        current = apply_level(store, &current, window);
    }
    store.push_roots(&current);
}

/// Applies one level's windows in window order: a window's plan reads only
/// its own members, so planning each just before applying it equals
/// planning the whole level first. Members keep their residuals and each
/// extracting window gets its own parent, allocated in window order.
/// Returns the next level.
fn apply_level<S: NodeStore>(store: &mut S, current: &[NodeId], window: usize) -> Vec<NodeId> {
    let mut next: Vec<NodeId> = Vec::new();
    for chunk in current.chunks(window) {
        match plan_window(store, chunk) {
            WindowPlan::Ride => next.push(chunk[0]),
            WindowPlan::TopLevel => store.push_roots(chunk),
            WindowPlan::Extract(common) => {
                store.keep_residuals(chunk, &common);
                next.push(store.push_parent(&common, chunk));
            }
        }
    }
    next
}

/// The arena: patterns are [`MaskedCode`]s, and every node counts its
/// subtree's tuples (the frequency H-Insert / H-Delete maintain).
impl NodeStore for DynamicHaIndex {
    type Pattern = MaskedCode;

    fn common(&self, members: &[NodeId]) -> Option<MaskedCode> {
        MaskedCode::common_of(members.iter().map(|&n| &self.nodes[n as usize].pattern))
            .filter(|common| !common.is_vacuous())
    }

    fn keep_residuals(&mut self, members: &[NodeId], common: &MaskedCode) {
        for &member in members {
            let node = &mut self.nodes[member as usize];
            node.pattern = node.pattern.subtract(common.mask());
        }
    }

    fn push_parent(&mut self, common: &MaskedCode, children: &[NodeId]) -> NodeId {
        let mut parent = Node::internal(common.clone());
        parent.children.extend_from_slice(children);
        parent.frequency = children.iter().map(|&n| self.nodes[n as usize].frequency).sum();
        alloc_raw(&mut self.nodes, parent)
    }

    fn push_roots(&mut self, nodes: &[NodeId]) {
        self.roots.extend_from_slice(nodes);
    }
}

pub(super) fn alloc_raw(nodes: &mut Vec<Node>, node: Node) -> NodeId {
    let id = nodes.len() as NodeId;
    nodes.push(node);
    id
}

/// H-Build's nodes for a build that goes straight to a frozen snapshot:
/// what [`flat::compile`] reads of an arena, and nothing else — no node
/// owns a heap allocation, no leaf copies its code or stores a pattern,
/// and no node keeps a frequency (the snapshot has none).
///
/// Leaves are nodes `0 .. leaves`, one per run of the [`GrayOrder`] of
/// the borrowed rows, in Gray order; internal nodes follow in the order
/// the levels allocate them, as in the arena. A leaf's pattern is implicit:
/// [`NodeStore::common`] reads a leaf only before it is extracted, when its
/// pattern is its row under a full mask, and the compile derives the
/// residual a leaf keeps afterwards from its path (the path invariant), so
/// only internal nodes store `2 · words` pattern words. Since no parent is
/// ever merged into (Algorithm 1's lines 6–11 cannot fire, see the module
/// doc), a parent's children are exactly its window's members, known
/// when it is made: they are kept as a CSR, one window's ids appended
/// per parent.
pub(super) struct BuildForest<'a> {
    code_len: usize,
    /// `u64` words per code.
    words: usize,
    rows: &'a [u64],
    ids: &'a [TupleId],
    order: &'a [(u64, u32)],
    keep_ids: bool,
    /// Internal node `leaves + i`'s pattern at `patterns[2 * words * i ..]`:
    /// `words` bits words, then `words` mask words.
    patterns: Vec<u64>,
    /// The mask of a leaf not yet extracted: every bit of the code.
    full: Box<[u64]>,
    /// Leaves.
    leaves: usize,
    /// Leaf `l`'s run is `order[run_start[l] .. run_start[l + 1]]`.
    run_start: Vec<u32>,
    /// Internal node `leaves + i`'s children are
    /// `children[child_start[i] .. child_start[i + 1]]`.
    child_start: Vec<u32>,
    children: Vec<NodeId>,
    roots: Vec<NodeId>,
}

impl<'a> BuildForest<'a> {
    /// The leaf level over `rows` (ids `ids`, sorted as `order`). Room for
    /// every node the levels can make is taken here, so nothing grows
    /// later: a level of `s` nodes makes at most one parent per window,
    /// `s.div_ceil(w)`.
    fn leaves(
        code_len: usize,
        rows: &'a [u64],
        ids: &'a [TupleId],
        order: &'a GrayOrder,
        config: &DhaConfig,
    ) -> Self {
        let words = code_len.div_ceil(64);
        let leaves = order.runs().count();
        let window = config.window.max(2);
        let mut internal = 0usize;
        let mut level = leaves;
        for _ in 0..config.max_depth.max(1) {
            if level <= 1 {
                break;
            }
            level = level.div_ceil(window);
            internal += level;
        }
        let mut run_start: Vec<u32> = Vec::with_capacity(leaves + 1);
        let mut at = 0;
        for run in order.runs() {
            run_start.push(at);
            at += run.len() as u32;
        }
        run_start.push(at);
        let mut child_start = Vec::with_capacity(internal + 1);
        child_start.push(0);
        BuildForest {
            code_len,
            words,
            rows,
            ids,
            order: &order.0,
            keep_ids: config.keep_leaf_ids,
            patterns: Vec::with_capacity(2 * words * internal),
            full: BinaryCode::ones(code_len).words().into(),
            leaves,
            run_start,
            child_start,
            children: Vec::with_capacity(leaves + internal),
            roots: Vec::new(),
        }
    }

    /// Leaf `leaf`'s code: the row of its run's first tuple.
    fn row(&self, leaf: usize) -> &[u64] {
        let first = self.order[self.run_start[leaf] as usize].1 as usize;
        &self.rows[first * self.words..][..self.words]
    }

    /// `node`'s pattern as its bits words and its mask words: a leaf's is
    /// its row under a full mask, which it is until it is extracted.
    fn pattern_words(&self, node: NodeId) -> (&[u64], &[u64]) {
        match (node as usize).checked_sub(self.leaves) {
            Some(i) => self.patterns[2 * self.words * i..][..2 * self.words].split_at(self.words),
            None => (self.row(node as usize), &self.full),
        }
    }

    /// Nodes made so far, leaves included.
    fn node_count(&self) -> usize {
        self.leaves + self.child_start.len() - 1
    }
}

/// The forest: a pattern is its `2 · words` words, bits then mask.
impl NodeStore for BuildForest<'_> {
    type Pattern = Box<[u64]>;

    fn common(&self, members: &[NodeId]) -> Option<Box<[u64]>> {
        let w = self.words;
        let (bits, mask) = self.pattern_words(members[0]);
        let mut common: Box<[u64]> = bits.iter().chain(mask).copied().collect();
        let (bits, mask) = common.split_at_mut(w);
        for &member in &members[1..] {
            let (b, m) = self.pattern_words(member);
            for i in 0..w {
                mask[i] &= m[i] & !(bits[i] ^ b[i]);
                bits[i] &= mask[i];
            }
        }
        mask.iter().any(|&m| m != 0).then_some(common)
    }

    /// Leaves keep no pattern to narrow: a leaf's residual is derived
    /// from its path when the snapshot is compiled.
    fn keep_residuals(&mut self, members: &[NodeId], common: &Box<[u64]>) {
        let w = self.words;
        let parent_mask = &common[w..];
        for &member in members {
            let Some(internal) = (member as usize).checked_sub(self.leaves) else {
                continue;
            };
            let (bits, mask) = self.patterns[2 * w * internal..][..2 * w].split_at_mut(w);
            for i in 0..w {
                mask[i] &= !parent_mask[i];
                bits[i] &= mask[i];
            }
        }
    }

    fn push_parent(&mut self, common: &Box<[u64]>, children: &[NodeId]) -> NodeId {
        let id = self.node_count() as NodeId;
        self.patterns.extend_from_slice(common);
        self.children.extend_from_slice(children);
        self.child_start.push(self.children.len() as u32);
        id
    }

    fn push_roots(&mut self, nodes: &[NodeId]) {
        self.roots.extend_from_slice(nodes);
    }
}

impl ForestView for BuildForest<'_> {
    fn code_len(&self) -> usize {
        self.code_len
    }

    fn sizes(&self) -> ForestSizes {
        ForestSizes {
            nodes: self.node_count(),
            leaves: self.leaves,
            tuples: self.ids.len(),
            leaf_ids: if self.keep_ids { self.ids.len() } else { 0 },
        }
    }

    fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    fn children(&self, node: NodeId) -> &[NodeId] {
        match (node as usize).checked_sub(self.leaves) {
            Some(i) => {
                &self.children[self.child_start[i] as usize..self.child_start[i + 1] as usize]
            }
            None => &[],
        }
    }

    fn pattern(&self, node: NodeId) -> (&[u64], &[u64]) {
        debug_assert!(node as usize >= self.leaves, "a leaf's pattern is implicit");
        self.pattern_words(node)
    }

    fn leaf(&self, node: NodeId, ids: &mut Vec<TupleId>) -> Option<&[u64]> {
        let leaf = node as usize;
        if leaf >= self.leaves {
            return None;
        }
        if self.keep_ids {
            let run = &self.order[self.run_start[leaf] as usize..self.run_start[leaf + 1] as usize];
            ids.extend(run.iter().map(|&(_, i)| self.ids[i as usize]));
        }
        Some(self.row(leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{clustered_dataset, paper_table_s, random_dataset};
    use crate::HammingIndex;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn build_paper_example_and_check_invariants() {
        let idx = DynamicHaIndex::build(paper_table_s());
        idx.check_invariants();
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.leaf_count(), 8);
        assert!(idx.internal_node_count() >= 1, "some sharing must occur");
    }

    #[test]
    fn build_with_small_window_mimics_figure_3() {
        // Window of 2 over the Gray-sorted running example: adjacent pairs
        // (t0-like neighbours) must share parents, giving a multi-level
        // forest like Figure 3.
        let idx = DynamicHaIndex::build_with(
            paper_table_s(),
            DhaConfig {
                window: 2,
                max_depth: 4,
                ..DhaConfig::default()
            },
        );
        idx.check_invariants();
        assert!(idx.depth() >= 2, "depth {}", idx.depth());
        assert!(idx.internal_node_count() >= 3);
    }

    #[test]
    fn build_groups_duplicate_codes_into_one_leaf() {
        let c: BinaryCode = "10101010".parse().unwrap();
        let d: BinaryCode = "10101011".parse().unwrap();
        let idx = DynamicHaIndex::build([
            (c.clone(), 1),
            (c.clone(), 2),
            (d.clone(), 3),
        ]);
        idx.check_invariants();
        assert_eq!(idx.leaf_count(), 2, "two distinct codes");
        assert_eq!(idx.len(), 3, "three tuples");
        // Frequencies: the duplicate leaf counts 2.
        let leaf = idx.leaves[&c];
        assert_eq!(idx.nodes[leaf as usize].frequency, 2);
    }

    #[test]
    fn depth_respects_max_depth() {
        let data = clustered_dataset(500, 32, 4, 2, 3);
        for md in [1usize, 2, 4] {
            let idx = DynamicHaIndex::build_with(
                data.clone(),
                DhaConfig {
                    window: 4,
                    max_depth: md,
                    ..DhaConfig::default()
                },
            );
            idx.check_invariants();
            assert!(
                idx.depth() <= md + 1,
                "max_depth {md} produced depth {}",
                idx.depth()
            );
        }
    }

    /// Every node's height — 0 for a leaf, one above its tallest child
    /// otherwise, which for a parent is the level that extracted it — and
    /// its root-to-node pattern: the residual patterns on its path from
    /// the top level, OR-ed (a path's masks are disjoint), as bits words
    /// then mask words.
    fn heights_and_paths(idx: &DynamicHaIndex) -> (Vec<usize>, Vec<Vec<u64>>) {
        // A parent is allocated after its children, so one pass in id
        // order sees every child's height first.
        let mut height = vec![0usize; idx.nodes.len()];
        for (n, node) in idx.nodes.iter().enumerate() {
            if let Some(tallest) = node.children.iter().map(|&c| height[c as usize]).max() {
                height[n] = tallest + 1;
            }
        }
        let mut path = vec![Vec::new(); idx.nodes.len()];
        let mut stack: Vec<(NodeId, Vec<u64>)> = idx
            .roots
            .iter()
            .map(|&r| (r, vec![0; 2 * idx.code_len.div_ceil(64)]))
            .collect();
        while let Some((n, mut words)) = stack.pop() {
            let pattern = &idx.nodes[n as usize].pattern;
            let (bits, mask) = words.split_at_mut(pattern.bits().words().len());
            for (w, &b) in bits.iter_mut().zip(pattern.bits().words()) {
                *w |= b;
            }
            for (w, &m) in mask.iter_mut().zip(pattern.mask().words()) {
                *w |= m;
            }
            for &c in &idx.nodes[n as usize].children {
                stack.push((c, words.clone()));
            }
            path[n as usize] = words;
        }
        (height, path)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Algorithm 1's lines 6–11 merge parents with equal patterns;
        /// `apply_level` has no such merge because it cannot fire: a
        /// level's windows cover disjoint runs of the Gray order, and two
        /// parents of one level with an equal pattern would both have to
        /// straddle the same split of one prefix block (DESIGN.md
        /// "Bulk-load to frozen"). So internal nodes of one height — the
        /// parents one level extracted — have pairwise-distinct
        /// root-to-node patterns, over random and clustered data of 8–512
        /// bits, windows of 2–64 and depths of 1–8.
        #[test]
        fn parents_of_one_height_never_share_a_pattern(
            seed in any::<u64>(),
            bits in 8usize..=512,
            window in 2usize..=64,
            max_depth in 1usize..=8,
            clustered in any::<bool>(),
            clusters in 1usize..=12,
            flips in 0usize..=6,
        ) {
            let n = 100 + (seed % 400) as usize;
            let data = if clustered {
                clustered_dataset(n, bits, clusters, flips, seed)
            } else {
                random_dataset(n, bits, seed)
            };
            let config = DhaConfig { window, max_depth, ..DhaConfig::default() };
            let idx = DynamicHaIndex::build_with(data, config);
            let (height, path) = heights_and_paths(&idx);
            let mut seen: HashMap<(usize, &[u64]), NodeId> = HashMap::new();
            for (n, node) in idx.nodes.iter().enumerate() {
                if node.leaf.is_some() {
                    continue;
                }
                let first = seen.insert((height[n], path[n].as_slice()), n as NodeId);
                prop_assert!(
                    first.is_none(),
                    "bits={} window={} depth={}: parents {:?} and {} of height {} share a pattern",
                    bits, window, max_depth, first, n, height[n]
                );
            }
        }
    }

    #[test]
    fn empty_build() {
        let idx = DynamicHaIndex::build(std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.leaf_count(), 0);
    }

    #[test]
    fn leafless_build_keeps_counts_not_ids() {
        let data = random_dataset(100, 32, 44);
        let idx = DynamicHaIndex::build_with(
            data,
            DhaConfig {
                keep_leaf_ids: false,
                ..DhaConfig::default()
            },
        );
        idx.check_invariants();
        assert_eq!(idx.len(), 100);
        assert!(idx.leaves.is_empty(), "no leaf hash table in leafless mode");
        // Memory split: payload (ids + hash table) must be tiny.
        let report = idx.memory_report();
        assert!(report.payload_bytes < report.structure_bytes);
    }

    #[test]
    fn clustered_data_builds_fewer_internal_nodes_than_leaves() {
        let data = clustered_dataset(2000, 32, 8, 2, 5);
        let idx = DynamicHaIndex::build(data);
        idx.check_invariants();
        assert!(
            idx.internal_node_count() < idx.leaf_count(),
            "internal {} vs leaves {}",
            idx.internal_node_count(),
            idx.leaf_count()
        );
    }

    #[test]
    fn uniform_random_data_still_valid() {
        let data = random_dataset(1000, 64, 91);
        let idx = DynamicHaIndex::build(data);
        idx.check_invariants();
        assert_eq!(idx.leaf_count(), 1000); // collisions vanishingly unlikely
    }

    /// `(case, fnv64 of to_bytes, fnv64 of the frozen store_bytes,
    /// memory_bytes)` of [`golden_cases`], recorded before H-Build grouped
    /// codes by sorted runs: any change to leaf order, id order within a
    /// leaf, level planning or arena capacity moves one of them.
    const GOLDEN: [(&str, u64, u64, usize); 11] = [
        ("16", 0xd539_dc03_d877_7354, 0x00a3_f1c6_130f_c516, 232_896),
        ("32", 0x54da_c62e_ecaa_2133, 0x4be8_91db_3871_c779, 835_312),
        ("64", 0xb57e_b706_94d1_27d6, 0xa4d3_767a_23e0_de4d, 836_164),
        ("65", 0xf5d3_5970_eee3_194e, 0x66ad_6e1f_5d5f_0d7b, 820_924),
        ("128", 0x0b4e_8328_bc47_be05, 0x32d2_211c_e393_31c0, 821_016),
        ("512", 0xbbcb_354b_42fc_5ad9, 0xd7dc_a3dd_e30d_8813, 371_424),
        ("64-random", 0xf0b9_0b98_250d_b603, 0x42cc_dbfc_c1d3_4383, 815_696),
        ("32-leafless", 0x9aa3_7bd2_ef4b_96ab, 0xa76d_9a4d_1f0f_d024, 632_056),
        ("128-leafless", 0x5433_9012_5b58_5f50, 0xbc22_16e3_23a6_2230, 318_176),
        ("16-window2", 0x9e2c_8170_6296_18a2, 0x32ac_ce1a_b359_107f, 226_048),
        ("64-window2", 0x7a59_0464_6a9f_f2f2, 0x2a94_a111_183c_3e1d, 755_224),
    ];

    type GoldenCase = (&'static str, Vec<(BinaryCode, TupleId)>, DhaConfig);

    /// Widths on both sides of the 64-bit rank path and of the inline
    /// code storage, with duplicate codes whose extra copies come first
    /// in the input under larger ids (a leaf's ids follow input position,
    /// not id order), in both leaf modes and with a window of 2.
    fn golden_cases() -> Vec<GoldenCase> {
        let dup = |data: Vec<(BinaryCode, TupleId)>| {
            let mut out: Vec<_> =
                data.iter().step_by(3).map(|(c, id)| (c.clone(), id + 1_000_000)).collect();
            out.extend(data);
            out
        };
        let leafless = DhaConfig { keep_leaf_ids: false, ..DhaConfig::default() };
        let window2 = DhaConfig { window: 2, max_depth: 4, ..DhaConfig::default() };
        vec![
            ("16", dup(clustered_dataset(3000, 16, 6, 2, 1)), DhaConfig::default()),
            ("32", dup(clustered_dataset(3000, 32, 8, 3, 2)), DhaConfig::default()),
            ("64", dup(clustered_dataset(3000, 64, 10, 3, 3)), DhaConfig::default()),
            ("65", dup(clustered_dataset(2000, 65, 6, 3, 4)), DhaConfig::default()),
            ("128", dup(clustered_dataset(2000, 128, 6, 4, 5)), DhaConfig::default()),
            ("512", dup(clustered_dataset(600, 512, 4, 8, 6)), DhaConfig::default()),
            ("64-random", random_dataset(2000, 64, 7), DhaConfig::default()),
            ("32-leafless", dup(clustered_dataset(3000, 32, 8, 2, 8)), leafless.clone()),
            ("128-leafless", dup(clustered_dataset(1500, 128, 5, 3, 9)), leafless),
            ("16-window2", dup(clustered_dataset(2000, 16, 4, 2, 10)), window2.clone()),
            ("64-window2", dup(clustered_dataset(2000, 64, 5, 2, 11)), window2),
        ]
    }

    #[test]
    fn golden_digests_pin_the_arena() {
        use ha_bitcode::fnv::fnv64;
        for ((name, data, config), &(want_name, arena, store, memory)) in
            golden_cases().into_iter().zip(&GOLDEN)
        {
            assert_eq!(name, want_name);
            let mut idx = DynamicHaIndex::build_with(data, config);
            let got_arena = fnv64(&idx.to_bytes());
            let got_memory = idx.memory_bytes();
            let got_store = fnv64(&idx.freeze().store_bytes());
            assert_eq!(
                (got_arena, got_store, got_memory),
                (arena, store, memory),
                "{name}: arena / store digest or memory_bytes moved"
            );
        }
    }

    /// A planned build compiles its snapshot from a build forest, never
    /// from the arena; the snapshot must be the arena's, byte for byte:
    /// at widths on both sides of one and two words, with duplicate codes
    /// whose extra copies come first under larger ids, in both leaf modes,
    /// with a window of 2 and with a single extraction level. Every golden
    /// case also reaches its recorded store digest through the planned
    /// path.
    #[test]
    fn a_planned_build_compiles_the_arena_snapshot_byte_for_byte() {
        use crate::planner::{PlanConfig, PlannedIndex};
        use ha_bitcode::fnv::fnv64;
        let dup = |data: Vec<(BinaryCode, TupleId)>| {
            let mut out: Vec<_> =
                data.iter().step_by(3).map(|(c, id)| (c.clone(), id + 1_000_000)).collect();
            out.extend(data);
            out
        };
        let configs = [
            DhaConfig::default(),
            DhaConfig { keep_leaf_ids: false, ..DhaConfig::default() },
            DhaConfig { window: 2, max_depth: 4, ..DhaConfig::default() },
            DhaConfig { max_depth: 1, ..DhaConfig::default() },
        ];
        let planned = |bits: usize, data: Vec<(BinaryCode, TupleId)>, dha: DhaConfig| {
            PlannedIndex::build_with(bits, data, PlanConfig { dha, ..PlanConfig::default() })
                .store_bytes()
        };
        for bits in [16usize, 63, 64, 65, 128, 512] {
            let data = dup(clustered_dataset(1500, bits, 5, 3, bits as u64));
            for config in &configs {
                let mut arena = DynamicHaIndex::build_with(data.clone(), config.clone());
                let want = arena.freeze().store_bytes();
                let got = planned(bits, data.clone(), config.clone());
                assert!(got == Some(want), "bits={bits} {config:?}: the snapshots differ");
            }
        }
        for ((name, data, config), &(_, _, store, _)) in golden_cases().into_iter().zip(&GOLDEN) {
            let bits = data[0].0.len();
            let got = planned(bits, data, config).map(|bytes| fnv64(&bytes));
            assert_eq!(got, Some(store), "{name}: store digest through the planned path");
        }
    }

    #[test]
    fn leafless_runs_carry_their_length_as_frequency() {
        // Both rank paths (a `u64` key at 16 bits, a run ordinal settled
        // on full ranks at 65), heavily duplicated.
        for bits in [16usize, 65] {
            let data = clustered_dataset(2000, bits, 3, 1, 29);
            let mut want: HashMap<&BinaryCode, u32> = HashMap::new();
            for (code, _) in &data {
                *want.entry(code).or_default() += 1;
            }
            let idx = DynamicHaIndex::build_with(
                data.clone(),
                DhaConfig { keep_leaf_ids: false, ..DhaConfig::default() },
            );
            assert_eq!(idx.leaf_count(), want.len(), "bits={bits}");
            assert!(want.values().any(|&f| f > 1), "bits={bits}: no duplicate");
            for node in &idx.nodes {
                if let Some(leaf) = &node.leaf {
                    assert!(leaf.ids.is_empty());
                    assert_eq!(node.frequency, want[&leaf.code], "bits={bits}");
                }
            }
        }
    }

    #[test]
    fn wide_rank_sort_settles_first_word_ties_on_the_full_rank() {
        // A rank word depends only on the code words up to it, so flipping
        // bits past the first word keeps the first rank word: every run of
        // equal first words here holds several distinct codes and
        // duplicates. The order must be `(gray_rank, position)`, and the
        // key must rise by one exactly where the code changes.
        use ha_bitcode::gray::gray_rank;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for bits in [65usize, 128, 200] {
            let base: Vec<BinaryCode> = (0..4).map(|_| BinaryCode::random(bits, &mut rng)).collect();
            let items: Vec<(BinaryCode, TupleId)> = (0..600)
                .map(|id| {
                    let mut code = base[rng.gen_range(0..base.len())].clone();
                    for _ in 0..rng.gen_range(0..3) {
                        code.flip(rng.gen_range(64..bits));
                    }
                    (code, id)
                })
                .collect();
            let mut want: Vec<u32> = (0..items.len() as u32).collect();
            want.sort_by_key(|&i| (gray_rank(&items[i as usize].0), i));
            let rows: Vec<u64> = items.iter().flat_map(|(c, _)| c.words().to_vec()).collect();
            let order = GrayOrder::sort_rows(&rows, bits, Vec::with_capacity(items.len()));
            let got: Vec<u32> = order.0.iter().map(|&(_, i)| i).collect();
            assert_eq!(got, want, "bits={bits}");
            assert_eq!(order.0[0].0, 0);
            for pair in order.0.windows(2) {
                let changed = items[pair[0].1 as usize].0 != items[pair[1].1 as usize].0;
                assert_eq!(pair[1].0, pair[0].0 + u64::from(changed), "bits={bits}");
            }
        }
    }
}
