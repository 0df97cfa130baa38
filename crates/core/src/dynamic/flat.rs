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
//! Leaves carry no pattern of their own. A leaf's pattern is its code row
//! under the bits its root-to-leaf path leaves free (the path invariant
//! HA-Store's validator checks), so the planes end at the *pattern bound*
//! — the end of the last group the masked sweep reads, never before the
//! end of the root group — and the compile derives the pattern of each
//! leaf before that bound from its parent's accumulated mask. The groups
//! past the bound hold only leaves and are swept over their rows; the
//! HA-Store writer regenerates their patterns, so a file still holds every
//! node's and its bytes do not depend on where the planes end.
//!
//! A snapshot is tagged with the arena's mutation epoch at compile time;
//! [`DynamicHaIndex`](super::DynamicHaIndex) dispatches searches to the
//! snapshot only while the epochs still agree, falling back to the arena
//! BFS (the oracle) after any mutation. Traversal order is identical to the
//! arena BFS, so results are byte-for-byte the same, not merely set-equal.
//! Traces (Table 3) always come from the arena.
//!
//! Since HA-Store, the traversal itself lives in `ha-store`'s
//! [`FlatStoreView`] — the same arrays, borrowed — and this type is the
//! *owner* of those arrays plus the epoch gate. `search` and its siblings
//! simply wrap the owned vectors in a view and delegate, which is what
//! guarantees an `mmap`-ed snapshot answers byte-for-byte like a frozen
//! one: both run the identical code. [`FlatHaIndex::store_bytes`]
//! serializes the arrays into the persistent HA-Store format.

use ha_bitcode::{BinaryCode, GroupLayout};
use ha_store::{FlatParts, FlatStoreView};

use super::{DynamicHaIndex, NodeId};
use crate::memory::vec_bytes;
use crate::pages::advise_huge;
use crate::TupleId;

/// Sentinel for "not a leaf" in the flat arrays.
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
    /// Word-plane pattern storage up to the pattern bound (module docs):
    /// the root group first, then each internal node's child group in BFS
    /// order, as far as the masked sweep reads. The group of node `p`'s
    /// children starts at word `2 * words * (root_count + child_start[p])`.
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
    /// Internal node `node`'s residual pattern as its bits words and its
    /// mask words. [`compile`] never asks for a leaf's: it derives it.
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

/// Appends one sibling group's patterns, given as `bits‖mask` rows, to
/// `planes` in the layout [`layout_for`] chose: SoA word-planes
/// (column-major) or the AoS rows as they are. Both occupy exactly
/// `rows.len()` words, so downstream base-offset arithmetic never depends
/// on the choice.
fn push_group(planes: &mut Vec<u64>, rows: &[u64], words: usize, layout: GroupLayout) {
    match layout {
        GroupLayout::Soa => {
            for i in 0..words {
                planes.extend(rows.chunks_exact(2 * words).map(|row| row[i]));
                planes.extend(rows.chunks_exact(2 * words).map(|row| row[words + i]));
            }
        }
        GroupLayout::Aos => planes.extend_from_slice(rows),
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
    let root_layout = layout_for(root_count, words);
    let mut groups = u32::from(root_count > 0);
    let mut aos_groups = u32::from(root_count > 0 && root_layout == GroupLayout::Aos);
    let mut group_layout: Vec<u8> = Vec::with_capacity(sizes.nodes + 1);
    group_layout.push(root_layout.flag());
    let mut child_start: Vec<u32> = Vec::with_capacity(sizes.nodes + 1);
    child_start.push(0);
    let mut children: Vec<u32> = Vec::with_capacity(sizes.nodes.saturating_sub(root_count));
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
            groups += 1;
            aos_groups += u32::from(layout == GroupLayout::Aos);
            group_layout.push(layout.flag());
            for &c in group {
                children.push(order.len() as u32);
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
    let mut flat = FlatHaIndex {
        code_len,
        words,
        epoch,
        len: sizes.tuples,
        root_count: root_count as u32,
        child_start,
        children,
        planes: Vec::new(),
        leaf_slot,
        leaf_code_words,
        leaf_sorted,
        leaf_ids_start,
        leaf_ids,
        group_layout,
        leaf_suffix,
        groups,
        aos_groups,
    };
    flat.planes = pattern_planes(forest, &order, &flat);
    flat
}

/// `flat`'s pattern planes, up to the pattern bound: the root group and
/// every child group that starts before the all-leaf suffix, in BFS
/// order, each in its recorded layout. `order[v]` is flat node `v`'s id
/// in `forest`. An internal node's pattern is the forest's; a leaf's is
/// its row under the bits its path leaves free, the complement of its
/// parent's accumulated mask.
fn pattern_planes<F: ForestView>(forest: &F, order: &[NodeId], flat: &FlatHaIndex) -> Vec<u64> {
    let w = flat.words;
    let rc = flat.root_count as usize;
    let starts = &flat.child_start;
    // The first group boundary at or past the suffix: the end of the
    // group holding node `leaf_suffix - 1`, or of the root group.
    let bound = rc + starts[starts.partition_point(|&s| rc + (s as usize) < flat.leaf_suffix)] as usize;
    if bound == 0 {
        // No node at all: an index built from no rows may have no code
        // length either.
        return Vec::new();
    }
    let mut planes: Vec<u64> = Vec::with_capacity(2 * w * bound);
    advise_huge(&planes);
    let full = BinaryCode::ones(flat.code_len);
    // Each internal node's accumulated mask, in node-id order: the order
    // in which their groups come up.
    let mut acc: Vec<u64> = Vec::with_capacity(w * (flat.node_count() - flat.leaf_sorted.len()));
    let mut parent = vec![0u64; w];
    let mut rows: Vec<u64> = Vec::new();
    let mut expanded = 0usize;
    for gi in 0..=flat.node_count() {
        let (first, end) = if gi == 0 {
            (0, rc)
        } else {
            let p = gi - 1;
            if flat.leaf_slot[p] != NONE {
                continue;
            }
            parent.copy_from_slice(&acc[w * expanded..w * (expanded + 1)]);
            expanded += 1;
            (rc + starts[p] as usize, rc + starts[p + 1] as usize)
        };
        if first >= bound {
            break;
        }
        rows.clear();
        for (&slot, &node) in flat.leaf_slot[first..end].iter().zip(&order[first..end]) {
            match slot {
                NONE => {
                    let (bits, mask) = forest.pattern(node);
                    rows.extend_from_slice(&bits[..w]);
                    rows.extend_from_slice(&mask[..w]);
                    acc.extend(parent.iter().zip(mask).map(|(a, m)| a | m));
                }
                slot => {
                    let row = &flat.leaf_code_words[slot as usize * w..][..w];
                    rows.extend(row.iter().zip(&parent).map(|(r, a)| r & !a));
                    rows.extend(full.words().iter().zip(&parent).map(|(f, a)| f & !a));
                }
            }
        }
        push_group(&mut planes, &rows, w, GroupLayout::from_flag(flat.group_layout[gi]));
    }
    planes
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
    /// `ha_store::store_bytes`). The file holds every node's pattern: the
    /// writer regenerates the leaf patterns past the pattern bound, so the
    /// bytes are those of a snapshot whose planes cover every node.
    pub fn store_bytes(&self) -> Vec<u8> {
        ha_store::store_bytes(&self.parts())
    }

    /// Exact point lookup over the sorted leaf directory: ids stored under
    /// `code`, or an empty slice.
    pub fn ids_for_code(&self, code: &BinaryCode) -> &[TupleId] {
        self.view().ids_for_code(code)
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
}

#[cfg(test)]
mod tests {
    use super::{FlatHaIndex, NONE};
    use crate::dynamic::{bulk_freeze, GrayOrder};
    use crate::testkit::{clustered_dataset, paper_table_s, random_dataset};
    use crate::{DhaConfig, DynamicHaIndex, HammingIndex, MutableIndex};
    use ha_bitcode::{BinaryCode, GroupLayout};
    use ha_store::HaStore;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Node `v`'s pattern words, bits then mask, read out of `planes` laid
    /// out as the snapshot `flat`'s groups are.
    fn pattern_in(flat: &FlatHaIndex, planes: &[u64], v: usize) -> Vec<u64> {
        let (w, rc) = (flat.words, flat.root_count as usize);
        let (gi, first, end) = if v < rc {
            (0, 0, rc)
        } else {
            let p = flat.child_start.partition_point(|&s| s as usize <= v - rc) - 1;
            (p + 1, rc + flat.child_start[p] as usize, rc + flat.child_start[p + 1] as usize)
        };
        let (g, s, base) = (end - first, v - first, 2 * w * first);
        let word = |i: usize| match GroupLayout::from_flag(flat.group_layout[gi]) {
            GroupLayout::Soa => planes[base + (2 * (i % w) + i / w) * g + s],
            GroupLayout::Aos => planes[base + 2 * w * s + i],
        };
        (0..2 * w).map(word).collect()
    }

    /// Checks a snapshot's leaf patterns against the arena's (see
    /// `leaf_patterns_are_derived_from_their_paths`); returns the
    /// snapshot.
    fn check_derived_patterns(
        data: &[(BinaryCode, crate::TupleId)],
        config: &DhaConfig,
    ) -> FlatHaIndex {
        let bits = data[0].0.len();
        let mut idx = DynamicHaIndex::build_with(data.to_vec(), config.clone());
        let flat = idx.freeze().clone();
        let (w, rc, nodes) = (flat.words, flat.root_count as usize, flat.node_count());

        // The arena in the compile's BFS order.
        let mut order = idx.roots.clone();
        let mut at = 0;
        while at < order.len() {
            order.extend_from_slice(&idx.nodes[order[at] as usize].children);
            at += 1;
        }
        let stored = |v: usize| {
            let pattern = &idx.nodes[order[v] as usize].pattern;
            [pattern.bits().words(), pattern.mask().words()].concat()
        };

        let mut bound = rc;
        for p in (0..nodes).filter(|&p| flat.leaf_slot[p] == NONE) {
            if rc + (flat.child_start[p] as usize) < flat.leaf_suffix {
                bound = bound.max(rc + flat.child_start[p + 1] as usize);
            }
        }
        prop_assert_eq!(flat.planes.len(), 2 * w * bound);
        for v in 0..bound {
            prop_assert_eq!(pattern_in(&flat, &flat.planes, v), stored(v), "node {}", v);
        }
        let store = HaStore::open_bytes(flat.store_bytes());
        prop_assert!(store.is_ok(), "the file must open: {:?}", store.err());
        let store = store.expect("checked");
        let file = store.view().parts().planes;
        for v in 0..nodes {
            prop_assert_eq!(pattern_in(&flat, file, v), stored(v), "file node {}", v);
        }

        let rows: Vec<u64> = data.iter().flat_map(|(c, _)| c.words().to_vec()).collect();
        let ids: Vec<_> = data.iter().map(|&(_, id)| id).collect();
        let sorted = GrayOrder::sort_rows(&rows, bits, Vec::with_capacity(ids.len()));
        let planned = bulk_freeze(bits, &rows, &ids, &sorted, config);
        prop_assert!(planned.planes == flat.planes, "the forest's planes differ");
        flat
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Leaves carry no pattern: the compile derives each leaf's inside
        /// the pattern bound from its path, and the HA-Store writer the
        /// rest. Every derived pattern must be the one the arena stores,
        /// from the arena and from a planned build's forest alike, and the
        /// planes must end at the bound — the end of the group holding the
        /// last internal node, never before the roots'. Random and
        /// clustered data, 8–512 bits, windows of 2–64, depths of 1–8.
        #[test]
        fn leaf_patterns_are_derived_from_their_paths(
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
            check_derived_patterns(&data, &config);
        }
    }

    /// A 512-bit clustered build's planes end at the all-leaf suffix: they
    /// hold no leaf the row sweep reads. At the default window and depth
    /// they hold internal nodes only.
    #[test]
    fn wide_clustered_planes_hold_no_suffix_leaf() {
        for (seed, window, max_depth) in [(1, 8, 8), (2, 2, 4), (3, 32, 2), (4, 64, 1), (5, 3, 8)] {
            let data = clustered_dataset(3000, 512, 12, 4, seed);
            let config = DhaConfig { window, max_depth, ..DhaConfig::default() };
            let flat = check_derived_patterns(&data, &config);
            let bound = flat.planes.len() / (2 * flat.words);
            let suffix = flat.leaf_suffix.max(flat.root_count as usize);
            assert_eq!(bound, suffix, "seed {seed}: a suffix leaf in the planes");
            assert!(bound < flat.node_count(), "seed {seed}: every node in the planes");
            if (window, max_depth) == (8, 8) {
                assert!(flat.leaf_slot[..bound].iter().all(|&s| s == NONE), "a leaf in the planes");
            }
        }
    }

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

        let mut nothing = DynamicHaIndex::build(std::iter::empty());
        assert_eq!(nothing.freeze().node_count(), 0);

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
