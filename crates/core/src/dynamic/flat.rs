//! `FlatHaIndex` — a frozen, cache-friendly snapshot of the Dynamic
//! HA-Index used as the hot search path.
//!
//! The mutable arena is the right shape for H-Insert/H-Delete, but H-Search
//! pays for that flexibility on every visit: a pointer chase per child
//! through an AoS `Node` (pattern + child list + leaf payload + bookkeeping
//! in one ~150-byte struct), dead slots interleaved with live ones, and one
//! scalar `MaskedCode::distance_to` per sibling. Freezing compiles the live
//! forest into three structure-of-arrays pieces:
//!
//! * **CSR adjacency** — nodes renumbered in BFS order so every sibling
//!   group is a contiguous id range; `child_start[v] .. child_start[v + 1]`
//!   indexes one flat `children` array.
//! * **SoA word-planes** — for each sibling group, pattern words are stored
//!   column-major: all siblings' *bits* word 0, all siblings' *mask* word 0,
//!   then word 1, … Pruning a whole group is then one sequential scan of
//!   contiguous memory by [`ha_bitcode::masked_distance_group`], which
//!   stops work on a sibling as soon as its accumulated distance exceeds
//!   `h` and on the group as soon as nobody is left within budget.
//! * **Leaf SoA** — leaf codes and their tuple-id lists in two flat arrays
//!   (ids in CSR form), so reporting a hit never touches the arena. BFS
//!   numbering gives the leaves below the last internal node consecutive
//!   slots, so a child group of only leaves is swept over these code rows
//!   instead of its patterns (see `ha_store::view`).
//!
//! A snapshot is tagged with the arena's mutation epoch at compile time;
//! [`DynamicHaIndex`](super::DynamicHaIndex) dispatches searches to the
//! snapshot only while the epochs still agree, falling back to the arena
//! BFS (the oracle) after any mutation. Traversal order is identical to the
//! arena BFS, so results are byte-for-byte the same, not merely set-equal.
//!
//! Since HA-Store, the traversal itself lives in `ha-store`'s
//! [`FlatStoreView`] — the same arrays, borrowed — and this type is the
//! *owner* of those arrays plus the arena-only extras (the `parent` array
//! for trace rendering, the epoch gate). `search`/`batch_search`/… simply
//! wrap the owned vectors in a view and delegate, which is what guarantees
//! an `mmap`-ed snapshot answers byte-for-byte like a frozen one: both run
//! the identical code. [`FlatHaIndex::store_bytes`] serializes the arrays
//! into the persistent HA-Store format.

use ha_bitcode::{masked_distance_group, BinaryCode, GroupLayout, Kernel, MaskedCode};
use ha_store::{FlatParts, FlatStoreView};

use super::search::{TraceEvent, TraceStep};
use super::{DynamicHaIndex, NodeId};
use crate::memory::vec_bytes;
use crate::pages::advise_huge;
use crate::TupleId;

/// Sentinel for "no parent" / "not a leaf" in the flat arrays.
const NONE: u32 = u32::MAX;

/// Sibling groups of multi-word codes strictly narrower than this are laid
/// out AoS: the group width where the kernel sweep measured the SoA stride
/// cost crossing the per-sibling early-exit gain.
const AOS_MAX_GROUP: usize = 16;

/// The layout [`compile`] gives a `group`-wide sibling group of
/// `words`-word patterns: AoS rows (each sibling's full `bits‖mask` row
/// contiguous) for a group of multi-word codes narrower than
/// [`AOS_MAX_GROUP`], SoA word-planes (column-major: all siblings' word 0,
/// then word 1, …) otherwise.
///
/// Wide groups amortize the SoA stride across many siblings and let the
/// lane kernels run branch-free; small groups of multi-word codes spend
/// more on striding than they save, and a row-major sweep with
/// per-sibling early exit wins — that crossover is exactly the 512-bit
/// sparse regression once measured at 0.69× under SoA everywhere. A
/// single-word code has one plane, so SoA is already its row. Both
/// layouts occupy the same `2 * words * group` words at the same base
/// offset, so the choice is free at search time: one flag byte per group,
/// recorded in HA-Store's `GROUP_LAYOUT` section.
fn layout_for(group: usize, words: usize) -> GroupLayout {
    if words > 1 && group < AOS_MAX_GROUP {
        GroupLayout::Aos
    } else {
        GroupLayout::Soa
    }
}

/// Frozen search snapshot of a [`DynamicHaIndex`] (see module docs).
#[derive(Clone, Debug)]
pub struct FlatHaIndex {
    code_len: usize,
    /// `u64` words per code (`code_len.div_ceil(64)`).
    words: usize,
    /// Arena mutation epoch this snapshot was compiled at.
    epoch: u64,
    /// Indexed tuples (with multiplicity).
    len: usize,
    /// Roots occupy flat ids `0 .. root_count`.
    root_count: u32,
    /// CSR child offsets: node `v`'s children live at
    /// `children[child_start[v] .. child_start[v + 1]]`.
    child_start: Vec<u32>,
    /// Flat child ids; every sibling group is a consecutive id range.
    children: Vec<u32>,
    /// Parent of each node (`NONE` for roots) — used to recover a node's
    /// sibling-group coordinates when rendering patterns for traces.
    parent: Vec<u32>,
    /// Word-plane pattern storage: the root group first, then each internal
    /// node's child group in BFS order. The group of node `p`'s children
    /// starts at word `2 * words * (root_count + child_start[p])`.
    planes: Vec<u64>,
    /// Per node: index into the leaf arrays, or `NONE` for internal nodes.
    leaf_slot: Vec<u32>,
    /// Distinct full codes of the leaves as `words`-word rows, by leaf
    /// slot (`leaf_code_words[slot * words .. (slot + 1) * words]`).
    leaf_code_words: Vec<u64>,
    /// Leaf slots ordered by code row, lexicographically ascending — the
    /// point-lookup directory HA-Store binary-searches. (Bit 0 is the MSB
    /// of word 0, so word-row order *is* bit-string order.)
    leaf_sorted: Vec<u32>,
    /// CSR offsets into `leaf_ids`, by leaf slot.
    leaf_ids_start: Vec<u32>,
    /// Tuple ids of every leaf, concatenated.
    leaf_ids: Vec<TupleId>,
    /// Per-group layout flags (entry 0 = root group, entry `1 + p` =
    /// node `p`'s child group; leaves carry an unused `0`), length
    /// `node_count + 1`. Mirrors HA-Store v2's GROUP_LAYOUT section.
    group_layout: Vec<u8>,
    /// First node id of the all-leaf BFS suffix (see
    /// [`FlatParts::leaf_suffix`]): child groups from here on are swept
    /// over their leaves' code rows.
    leaf_suffix: usize,
    /// Sibling groups compiled, and how many of them [`layout_for`] laid
    /// out row-major — the planner reads the ratio.
    groups: u32,
    aos_groups: u32,
}

/// What [`compile`] reads of a forest: its top level, each node's
/// children and residual pattern, and each leaf's code row and ids. The
/// arena ([`DynamicHaIndex`]) and H-Build's flat build forest
/// (`build::BuildForest`) both provide it, and compile to the same bytes.
pub(super) trait ForestView {
    /// Width of the codes in bits.
    fn code_len(&self) -> usize;
    /// What the snapshot will hold, so its arrays are allocated once.
    fn sizes(&self) -> ForestSizes;
    /// The top level, in order.
    fn roots(&self) -> &[NodeId];
    /// `node`'s children, in order (none for a leaf).
    fn children(&self, node: NodeId) -> &[NodeId];
    /// `node`'s residual pattern as its bits words and its mask words.
    fn pattern(&self, node: NodeId) -> (&[u64], &[u64]);
    /// For a leaf, its code's words, its ids appended to `ids` (none when
    /// the forest keeps no leaf ids); `None` for an internal node.
    fn leaf(&self, node: NodeId, ids: &mut Vec<TupleId>) -> Option<&[u64]>;
}

/// Counts a [`ForestView`] reports ahead of a compile.
pub(super) struct ForestSizes {
    /// Nodes (an arena's live ones: all reachable once compacted).
    pub nodes: usize,
    /// Leaves among them.
    pub leaves: usize,
    /// Tuples indexed, with multiplicity.
    pub tuples: usize,
    /// Ids the leaves hold, in all.
    pub leaf_ids: usize,
}

/// The arena, once flushed and compacted: every node is live and
/// reachable.
impl ForestView for DynamicHaIndex {
    fn code_len(&self) -> usize {
        self.code_len
    }

    fn sizes(&self) -> ForestSizes {
        debug_assert!(self.buffer.is_empty(), "freeze must flush the buffer");
        debug_assert!(self.nodes.iter().all(|n| n.alive), "freeze must compact");
        let leaves = self.nodes.iter().filter_map(|n| n.leaf.as_ref());
        ForestSizes {
            nodes: self.nodes.len(),
            leaves: leaves.clone().count(),
            tuples: self.len,
            leaf_ids: leaves.map(|leaf| leaf.ids.len()).sum(),
        }
    }

    fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node as usize].children
    }

    fn pattern(&self, node: NodeId) -> (&[u64], &[u64]) {
        let pattern = &self.nodes[node as usize].pattern;
        (pattern.bits().words(), pattern.mask().words())
    }

    fn leaf(&self, node: NodeId, ids: &mut Vec<TupleId>) -> Option<&[u64]> {
        let leaf = self.nodes[node as usize].leaf.as_ref()?;
        ids.extend_from_slice(&leaf.ids);
        Some(leaf.code.words())
    }
}

/// Appends one sibling group's patterns to `planes` in the layout
/// [`layout_for`] chose: SoA word-planes (column-major) or AoS rows. Both
/// occupy exactly `2 * words * group.len()` words, so downstream
/// base-offset arithmetic never depends on the choice.
fn push_group<F: ForestView>(
    planes: &mut Vec<u64>,
    forest: &F,
    group: &[NodeId],
    words: usize,
    layout: GroupLayout,
) {
    match layout {
        GroupLayout::Soa => {
            for w in 0..words {
                planes.extend(group.iter().map(|&m| forest.pattern(m).0[w]));
                planes.extend(group.iter().map(|&m| forest.pattern(m).1[w]));
            }
        }
        GroupLayout::Aos => {
            for &m in group {
                let (bits, mask) = forest.pattern(m);
                planes.extend_from_slice(&bits[..words]);
                planes.extend_from_slice(&mask[..words]);
            }
        }
    }
}

/// Compiles a snapshot of `forest`, tagged with the arena `epoch` it
/// reflects, laying each sibling group out as [`layout_for`] decides. Every
/// array is allocated once, at its final size; the two the search reads at
/// random, the planes and the leaf rows, ask for huge pages before they
/// are written (`pages.rs`).
///
/// An arena must be flushed and compacted first
/// ([`DynamicHaIndex::freeze`](super::DynamicHaIndex::freeze) does both):
/// the BFS renumbering below assumes every reachable node is alive.
pub(super) fn compile<F: ForestView>(forest: &F, epoch: u64) -> FlatHaIndex {
    let code_len = forest.code_len();
    let words = code_len.div_ceil(64);
    let sizes = forest.sizes();
    let roots = forest.roots();
    let root_count = roots.len();

    // BFS renumbering: roots first, then each processed node's children
    // appended consecutively — which *is* the CSR sibling-contiguity
    // property the planes rely on.
    let mut order: Vec<NodeId> = Vec::with_capacity(sizes.nodes);
    order.extend_from_slice(roots);
    let mut planes: Vec<u64> = Vec::with_capacity(2 * words * sizes.nodes);
    advise_huge(&planes);
    let mut groups = 0u32;
    let mut aos_groups = 0u32;
    let root_layout = layout_for(root_count, words);
    push_group(&mut planes, forest, roots, words, root_layout);
    if root_count > 0 {
        groups += 1;
        aos_groups += u32::from(root_layout == GroupLayout::Aos);
    }
    let mut group_layout: Vec<u8> = Vec::with_capacity(sizes.nodes + 1);
    group_layout.push(root_layout.flag());
    let mut child_start: Vec<u32> = Vec::with_capacity(sizes.nodes + 1);
    child_start.push(0);
    let mut children: Vec<u32> = Vec::with_capacity(sizes.nodes.saturating_sub(root_count));
    let mut parent: Vec<u32> = Vec::with_capacity(sizes.nodes);
    parent.resize(root_count, NONE);
    let mut leaf_slot: Vec<u32> = Vec::with_capacity(sizes.nodes);
    let mut leaf_count = 0u32;
    let mut leaf_code_words: Vec<u64> = Vec::with_capacity(sizes.leaves * words);
    advise_huge(&leaf_code_words);
    let mut leaf_ids_start: Vec<u32> = Vec::with_capacity(sizes.leaves + 1);
    leaf_ids_start.push(0);
    let mut leaf_ids: Vec<TupleId> = Vec::with_capacity(sizes.leaf_ids);

    let mut at = 0usize;
    while at < order.len() {
        let node = order[at];
        if let Some(code) = forest.leaf(node, &mut leaf_ids) {
            leaf_slot.push(leaf_count);
            leaf_count += 1;
            leaf_code_words.extend_from_slice(code);
            leaf_ids_start.push(leaf_ids.len() as u32);
            group_layout.push(GroupLayout::Soa.flag()); // leaves own no group
        } else {
            leaf_slot.push(NONE);
            // The per-subtree measurement: this group's width decides
            // its layout, independently of every other group.
            let group = forest.children(node);
            let layout = layout_for(group.len(), words);
            push_group(&mut planes, forest, group, words, layout);
            groups += 1;
            aos_groups += u32::from(layout == GroupLayout::Aos);
            group_layout.push(layout.flag());
            for &c in group {
                children.push(order.len() as u32);
                parent.push(at as u32);
                order.push(c);
            }
        }
        child_start.push(children.len() as u32);
        at += 1;
    }

    // Sorted leaf directory: slots ordered by code row. Codes are distinct
    // (one leaf per code by construction), so the order is strict — the
    // property HA-Store's validator re-checks on open.
    let mut leaf_sorted: Vec<u32> = (0..leaf_count).collect();
    leaf_sorted.sort_unstable_by(|&a, &b| {
        let ra = &leaf_code_words[a as usize * words..(a as usize + 1) * words];
        let rb = &leaf_code_words[b as usize * words..(b as usize + 1) * words];
        ra.cmp(rb)
    });

    let leaf_suffix = ha_store::view::leaf_suffix_start(&leaf_slot);
    FlatHaIndex {
        code_len,
        words,
        epoch,
        len: sizes.tuples,
        root_count: root_count as u32,
        child_start,
        children,
        parent,
        planes,
        leaf_slot,
        leaf_code_words,
        leaf_sorted,
        leaf_ids_start,
        leaf_ids,
        group_layout,
        leaf_suffix,
        groups,
        aos_groups,
    }
}

impl FlatHaIndex {
    /// Arena mutation epoch this snapshot reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of indexed tuples (with multiplicity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of the indexed codes in bits.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Total nodes in the snapshot (all live, by construction).
    pub fn node_count(&self) -> usize {
        self.leaf_slot.len()
    }

    /// Heap bytes held by the snapshot's flat arrays.
    pub fn memory_bytes(&self) -> usize {
        vec_bytes(&self.child_start)
            + vec_bytes(&self.children)
            + vec_bytes(&self.parent)
            + vec_bytes(&self.planes)
            + vec_bytes(&self.leaf_slot)
            + vec_bytes(&self.leaf_code_words)
            + vec_bytes(&self.leaf_sorted)
            + vec_bytes(&self.leaf_ids_start)
            + vec_bytes(&self.leaf_ids)
            + vec_bytes(&self.group_layout)
    }

    /// Fraction of sibling groups the compile laid out row-major (AoS),
    /// in `0.0 ..= 1.0`: narrow groups of multi-word codes. The planner folds this into the flat
    /// backend's sparse penalty: AoS groups early-exit per sibling like
    /// the arena does, so a mostly-AoS snapshot does not pay the SoA
    /// stride tax the penalty models.
    pub fn aos_fraction(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            f64::from(self.aos_groups) / f64::from(self.groups)
        }
    }

    /// The snapshot's arrays as borrowed [`FlatParts`] — valid by
    /// construction (`compile` *is* the invariant builder), so views over
    /// them skip re-validation.
    fn parts(&self) -> FlatParts<'_> {
        FlatParts {
            code_len: self.code_len,
            words: self.words,
            root_count: self.root_count as usize,
            tuple_count: self.len,
            epoch: self.epoch,
            child_start: &self.child_start,
            children: &self.children,
            planes: &self.planes,
            leaf_slot: &self.leaf_slot,
            leaf_code_words: &self.leaf_code_words,
            leaf_ids_start: &self.leaf_ids_start,
            leaf_ids: &self.leaf_ids,
            leaf_sorted: &self.leaf_sorted,
            group_layout: &self.group_layout,
            leaf_suffix: self.leaf_suffix,
        }
    }

    /// Zero-copy search view over the owned arrays — the same type an
    /// `mmap`-ed HA-Store snapshot hands out.
    pub fn view(&self) -> FlatStoreView<'_> {
        FlatStoreView::from_parts_unchecked(self.parts())
    }

    /// Serializes the snapshot into the persistent HA-Store format
    /// (v2, carrying the per-group layout flags; see
    /// `ha_store::store_bytes`).
    pub fn store_bytes(&self) -> Vec<u8> {
        ha_store::store_bytes(&self.parts())
    }

    /// Storage layout of group `gi` (0 = root group, `1 + p` = node
    /// `p`'s child group).
    #[inline]
    fn layout_of(&self, gi: usize) -> GroupLayout {
        GroupLayout::from_flag(self.group_layout.get(gi).copied().unwrap_or(0))
    }

    /// Exact point lookup over the sorted leaf directory: ids stored under
    /// `code`, or an empty slice.
    pub fn ids_for_code(&self, code: &BinaryCode) -> &[TupleId] {
        self.view().ids_for_code(code)
    }

    /// Tuple ids of leaf slot `slot`.
    #[inline]
    fn ids_of(&self, slot: u32) -> &[TupleId] {
        let lo = self.leaf_ids_start[slot as usize] as usize;
        let hi = self.leaf_ids_start[slot as usize + 1] as usize;
        &self.leaf_ids[lo..hi]
    }

    /// Word-plane slice and group size of node `p`'s child group.
    #[inline]
    fn child_group(&self, p: u32) -> (&[u64], usize, usize) {
        let lo = self.child_start[p as usize] as usize;
        let hi = self.child_start[p as usize + 1] as usize;
        let g = hi - lo;
        let base = 2 * self.words * (self.root_count as usize + lo);
        (&self.planes[base..base + 2 * self.words * g], g, lo)
    }

    /// Leaf slot `slot`'s code as a word row.
    #[inline]
    fn leaf_row(&self, slot: usize) -> &[u64] {
        &self.leaf_code_words[slot * self.words..(slot + 1) * self.words]
    }

    /// H-Search over the frozen layout (requires `keep_leaf_ids`).
    pub fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        self.view().search(query, h)
    }

    /// H-Search returning `(id, exact distance)` pairs.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        self.view().search_with_distances(query, h)
    }

    /// H-Search returning distinct qualifying codes with exact distances.
    pub fn search_codes(&self, query: &BinaryCode, h: u32) -> Vec<(BinaryCode, u32)> {
        self.view().search_codes(query, h)
    }

    /// Batched H-Search: one solo flat traversal per query, sharing the
    /// thread's scratch buffers across the whole batch so the steady
    /// state allocates nothing per query. (PR 3's serve bench showed raw
    /// per-query CPU, not traversal sharing, bounds throughput once
    /// locks are amortized.)
    pub fn batch_search(&self, queries: &[BinaryCode], h: u32) -> Vec<Vec<TupleId>> {
        self.view().batch_search(queries, h)
    }

    /// Reconstructs node `v`'s residual pattern from its sibling group's
    /// word-planes (trace rendering only — the hot path never needs it).
    fn pattern_of(&self, v: u32) -> MaskedCode {
        let rc = self.root_count as usize;
        let w = self.words;
        let (base, g, s, layout) = if (v as usize) < rc {
            (0usize, rc, v as usize, self.layout_of(0))
        } else {
            let p = self.parent[v as usize];
            let lo = self.child_start[p as usize] as usize;
            let hi = self.child_start[p as usize + 1] as usize;
            (
                2 * w * (rc + lo),
                hi - lo,
                v as usize - rc - lo,
                self.layout_of(p as usize + 1),
            )
        };
        let mut bits = vec![0u64; w];
        let mut mask = vec![0u64; w];
        for wi in 0..w {
            match layout {
                GroupLayout::Soa => {
                    bits[wi] = self.planes[base + 2 * wi * g + s];
                    mask[wi] = self.planes[base + (2 * wi + 1) * g + s];
                }
                GroupLayout::Aos => {
                    bits[wi] = self.planes[base + s * 2 * w + wi];
                    mask[wi] = self.planes[base + s * 2 * w + w + wi];
                }
            }
        }
        let bits = BinaryCode::from_words(&bits, self.code_len);
        let mask = BinaryCode::from_words(&mask, self.code_len);
        // Same-length by construction; the fallback is unreachable but keeps
        // this file within its zero panic budget.
        MaskedCode::new(bits, mask).unwrap_or_else(|_| MaskedCode::empty(self.code_len))
    }

    /// Instrumented H-Search over the flat layout — same rounds, events and
    /// snapshots as the arena's Table-3 trace. Distances here are computed
    /// exactly (no early exit): the trace reports the violating accumulated
    /// distance of pruned nodes, which the bailing kernel would truncate.
    pub fn search_trace(&self, query: &BinaryCode, h: u32) -> (Vec<TupleId>, Vec<TraceStep>) {
        assert_eq!(query.len(), self.code_len, "query length mismatch");
        let rc = self.root_count as usize;
        let w = self.words;
        let qw = query.words();
        let mut steps: Vec<TraceStep> = Vec::new();
        let mut results: Vec<TupleId> = Vec::new();
        // FIFO as a cursor over a grow-only Vec: identical visit order to
        // the arena's queue.
        let mut queue: Vec<(u32, u32)> = Vec::new();
        let mut cursor = 0usize;
        let mut dist: Vec<u32> = Vec::new();

        let visit = |v: u32,
                         d: u32,
                         events: &mut Vec<TraceEvent>,
                         results: &mut Vec<TupleId>,
                         queue: &mut Vec<(u32, u32)>| {
            if d > h {
                events.push(TraceEvent::Pruned {
                    pattern: self.pattern_of(v).to_string(),
                    acc: d,
                });
            } else if self.leaf_slot[v as usize] != NONE {
                let slot = self.leaf_slot[v as usize];
                let ids = self.ids_of(slot).to_vec();
                events.push(TraceEvent::Reported {
                    code: BinaryCode::from_words(self.leaf_row(slot as usize), self.code_len)
                        .to_string(),
                    distance: d,
                    ids: ids.clone(),
                });
                results.extend(ids);
            } else {
                events.push(TraceEvent::Enqueued {
                    pattern: self.pattern_of(v).to_string(),
                    acc: d,
                });
                queue.push((v, d));
            }
        };

        // Round 0: the top level.
        let mut events = Vec::new();
        if rc > 0 {
            dist.resize(rc, 0);
            // Scalar kernel, unlimited budget: nothing prunes, so every
            // accumulator is exact — the trace reports the violating
            // distance of pruned nodes, which a bailing kernel truncates.
            masked_distance_group(
                Kernel::Scalar,
                self.layout_of(0),
                qw,
                &self.planes[..2 * w * rc],
                rc,
                u32::MAX,
                &mut dist,
            );
            for v in 0..rc {
                visit(v as u32, dist[v], &mut events, &mut results, &mut queue);
            }
        }
        steps.push(TraceStep {
            events,
            queue_after: self.queued_patterns(&queue, cursor),
            results_so_far: results.clone(),
        });

        while cursor < queue.len() {
            let (p, acc) = queue[cursor];
            cursor += 1;
            let mut events = Vec::new();
            let (planes, g, lo) = self.child_group(p);
            dist.clear();
            dist.resize(g, acc);
            masked_distance_group(
                Kernel::Scalar,
                self.layout_of(p as usize + 1),
                qw,
                planes,
                g,
                u32::MAX,
                &mut dist,
            );
            for s in 0..g {
                visit(
                    self.children[lo + s],
                    dist[s],
                    &mut events,
                    &mut results,
                    &mut queue,
                );
            }
            steps.push(TraceStep {
                events,
                queue_after: self.queued_patterns(&queue, cursor),
                results_so_far: results.clone(),
            });
        }
        (results, steps)
    }

    fn queued_patterns(&self, queue: &[(u32, u32)], cursor: usize) -> Vec<String> {
        queue[cursor..]
            .iter()
            .map(|&(v, _)| self.pattern_of(v).to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::{clustered_dataset, paper_table_s, random_dataset};
    use crate::{DhaConfig, DynamicHaIndex, HammingIndex, MutableIndex};
    use ha_bitcode::BinaryCode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Freeze a clone and return (frozen, thawed-arena) views of the same
    /// contents.
    fn views(idx: &DynamicHaIndex) -> (DynamicHaIndex, DynamicHaIndex) {
        let mut frozen = idx.clone();
        frozen.freeze();
        let mut arena = frozen.clone();
        arena.thaw();
        (frozen, arena)
    }

    #[test]
    fn paper_example_byte_identical_to_arena() {
        let idx = DynamicHaIndex::build_with(
            paper_table_s(),
            DhaConfig {
                window: 2,
                max_depth: 4,
                ..DhaConfig::default()
            },
        );
        let (frozen, arena) = views(&idx);
        assert!(frozen.flat_is_current());
        assert!(!arena.flat_is_current());
        let q: BinaryCode = "101100010".parse().unwrap();
        for h in 0..=9 {
            assert_eq!(frozen.search(&q, h), arena.search(&q, h), "h={h}");
            assert_eq!(
                frozen.search_with_distances(&q, h),
                arena.search_with_distances(&q, h)
            );
            assert_eq!(frozen.search_codes(&q, h), arena.search_codes(&q, h));
        }
    }

    #[test]
    fn trace_byte_identical_to_arena() {
        let idx = DynamicHaIndex::build_with(
            paper_table_s(),
            DhaConfig {
                window: 2,
                max_depth: 4,
                ..DhaConfig::default()
            },
        );
        let (frozen, arena) = views(&idx);
        let q: BinaryCode = "010001011".parse().unwrap();
        let (ids_f, steps_f) = frozen.search_trace(&q, 3);
        let (ids_a, steps_a) = arena.search_trace(&q, 3);
        assert_eq!(ids_f, ids_a);
        assert_eq!(steps_f, steps_a);
        assert_eq!(ids_f, vec![0]);
    }

    #[test]
    fn batch_matches_solo_on_flat() {
        let data = clustered_dataset(400, 64, 6, 3, 17);
        let mut idx = DynamicHaIndex::build(data);
        idx.freeze();
        let mut rng = StdRng::seed_from_u64(18);
        let queries: Vec<BinaryCode> = (0..13).map(|_| BinaryCode::random(64, &mut rng)).collect();
        for h in [0u32, 3, 6, 10] {
            let batched = idx.batch_search(&queries, h);
            for (qi, q) in queries.iter().enumerate() {
                assert_eq!(batched[qi], idx.search(q, h), "h={h} query {qi}");
            }
        }
    }

    #[test]
    fn mutations_invalidate_then_refreeze_revalidates() {
        let data = random_dataset(200, 32, 23);
        let mut idx = DynamicHaIndex::build(data.clone());
        idx.freeze();
        assert!(idx.flat_is_current());
        let mut rng = StdRng::seed_from_u64(24);
        let fresh = BinaryCode::random(32, &mut rng);
        idx.insert(fresh.clone(), 9_999);
        assert!(!idx.flat_is_current(), "insert must invalidate the snapshot");
        // Stale snapshot is bypassed: the buffered tuple is visible.
        assert!(idx.search(&fresh, 0).contains(&9_999));
        idx.freeze();
        assert!(idx.flat_is_current());
        assert!(idx.search(&fresh, 0).contains(&9_999));
        assert!(idx.delete(&fresh, 9_999));
        assert!(!idx.flat_is_current(), "delete must invalidate the snapshot");
    }

    #[test]
    fn freeze_compacts_dead_slots() {
        let data = random_dataset(150, 24, 31);
        let mut idx = DynamicHaIndex::build(data.clone());
        for (code, id) in data.iter().take(40) {
            assert!(idx.delete(code, *id));
        }
        assert!(idx.dead_slots() > 0);
        let before = idx.dead_slots();
        idx.freeze();
        assert_eq!(idx.dead_slots(), 0, "freeze drops {before} dead slots");
        idx.check_invariants();
        let flat = idx.flat().expect("fresh snapshot");
        assert_eq!(flat.len(), idx.len());
        assert!(flat.node_count() > 0);
        assert!(flat.memory_bytes() > 0);
        // Results still match a linear oracle.
        let mut rng = StdRng::seed_from_u64(32);
        for h in [0u32, 2, 5] {
            let q = BinaryCode::random(24, &mut rng);
            crate::testkit::assert_matches_oracle(
                idx.search(&q, h),
                &data[40..],
                &q,
                h,
                "flat-after-delete",
            );
        }
    }

    #[test]
    fn empty_and_single_leaf_snapshots() {
        let mut empty = DynamicHaIndex::empty(16, DhaConfig::default());
        empty.freeze();
        assert!(empty.flat_is_current());
        assert!(empty.search(&BinaryCode::zero(16), 16).is_empty());

        let mut one = DynamicHaIndex::build([(BinaryCode::from_u64(5, 16), 7u64)]);
        one.freeze();
        assert_eq!(one.search(&BinaryCode::from_u64(5, 16), 0), vec![7]);
        let (_, steps) = one.search_trace(&BinaryCode::from_u64(5, 16), 0);
        assert!(!steps.is_empty());
    }

    #[test]
    fn single_word_codes_stay_soa_under_adaptive() {
        let data = clustered_dataset(200, 64, 4, 3, 80);
        let mut idx = DynamicHaIndex::build(data);
        idx.freeze();
        assert_eq!(
            idx.flat().expect("frozen").aos_fraction(),
            0.0,
            "AoS only pays for multi-word codes"
        );
    }

    #[test]
    fn wide_codes_exercise_multiword_planes() {
        let data = clustered_dataset(120, 512, 4, 5, 41);
        let idx = DynamicHaIndex::build(data);
        let (frozen, arena) = views(&idx);
        let mut rng = StdRng::seed_from_u64(42);
        for h in [0u32, 8, 40, 200] {
            let mut q = BinaryCode::random(512, &mut rng);
            if rng.gen_bool(0.5) {
                // Half the queries sit near the data so something matches.
                q = frozen.items().next().map(|(c, _)| c).unwrap_or(q);
            }
            assert_eq!(frozen.search(&q, h), arena.search(&q, h), "h={h}");
        }
    }
}
