//! `FlatStoreView` — the borrowed, zero-copy search surface over a
//! frozen HA-Index snapshot's flat arrays.
//!
//! This is the *single* implementation of the level-synchronous CSR/SoA
//! traversal introduced by HA-Flat: `ha-core`'s owned `FlatHaIndex`
//! builds a view over its own `Vec`s and delegates here, and `HaStore`
//! builds one straight over mapped file bytes — so an index served off
//! disk answers **byte-for-byte** identically to a freshly frozen one,
//! because it runs literally the same code over the same layout.
//!
//! A view is constructed two ways:
//!
//! * [`FlatStoreView::new`] — full structural validation of untrusted
//!   arrays (everything a checksum can't express: CSR monotonicity, the
//!   consecutive-children invariant that makes traversal termination
//!   provable, index bounds, sorted-leaf strictness, and the H-Search
//!   path invariant the leaf row sweep trusts). This is what the
//!   file-open path uses; after it succeeds, no search can panic or
//!   read out of bounds.
//! * [`FlatStoreView::from_parts_unchecked`] — for arrays whose
//!   invariants hold *by construction* (the freshly compiled
//!   `FlatHaIndex`, or a re-slice of sections that already passed
//!   `new`). "Unchecked" here means *validation is skipped*, not that
//!   memory safety is waived — every access still bounds-checks; a lie
//!   in the parts can only cost a panic, never UB.
//!
//! # Termination, for the validated path
//!
//! Validation pins `children[i] == root_count + i` — the flat child
//! array is one consecutive id run, exactly what BFS renumbering
//! produces. Hence every non-root node appears **exactly once** as a
//! child (a unique parent), and no root ever does (child ids are
//! `>= root_count`). A cycle reachable from a root would need some node
//! on it with a second inbound edge for the root path to splice in —
//! impossible with unique parents — so the reachable graph is a forest,
//! every frontier node is visited at most once, and the traversal
//! terminates after at most `node_count` pops.
//!
//! # Leaf groups read rows, not patterns
//!
//! The masks along a root-to-leaf path are disjoint, cover every bit and
//! spell the leaf's code, so at a leaf the parent's accumulator plus the
//! leaf's masked residual is exactly `popcount(query ⊕ leaf code)`. A
//! child group made only of leaves is therefore swept over the leaves'
//! stored code rows ([`hamming_distance_rows`]) — `words` words per leaf
//! instead of the `2 · words` of a pattern. BFS numbering puts every
//! leaf deeper than the last internal node in one suffix of the node
//! ids, and leaf slots follow BFS order, so such a group's rows are
//! consecutive and the group is recognised by one compare against
//! [`FlatParts::leaf_suffix`], with no load. Groups before the suffix
//! keep the masked sweep.
//!
//! So no search reads a pattern past the *pattern bound*, the end of the
//! last group the masked sweep reads, and the path invariant makes every
//! leaf's pattern implicit: its row under the bits its path leaves free.
//! `ha-core`'s in-memory snapshot keeps its planes only up to that bound
//! and derives the leaf patterns inside it ([`FlatParts::planes`]). A
//! file still holds every node's pattern, byte for byte as before: the
//! writer ([`store_bytes`](crate::store_bytes)) regenerates the ones past
//! the bound, and the open path checks all of them.

use std::cell::RefCell;

use ha_bitcode::{hamming_distance_rows, masked_distance_group, BinaryCode, GroupLayout, Kernel};

use crate::error::StoreError;

/// Sentinel for "not a leaf" in `leaf_slot` (mirrors `FlatHaIndex`).
pub const NONE: u32 = u32::MAX;

/// Borrowed flat arrays of one frozen snapshot. Field meanings are
/// identical to `ha-core`'s `FlatHaIndex` (see that module's docs); ids
/// are `u64` tuple ids, codes are stored as `words`-word rows.
#[derive(Clone, Copy, Debug)]
pub struct FlatParts<'a> {
    /// Bits per code.
    pub code_len: usize,
    /// `u64` words per code (`code_len.div_ceil(64)`).
    pub words: usize,
    /// Roots occupy flat ids `0 .. root_count`.
    pub root_count: usize,
    /// Indexed tuples with multiplicity (`len()` of the index).
    pub tuple_count: usize,
    /// Arena mutation epoch the snapshot froze at.
    pub epoch: u64,
    /// CSR child offsets, length `node_count + 1`.
    pub child_start: &'a [u32],
    /// Flat child ids, length `node_count - root_count`.
    pub children: &'a [u32],
    /// Word-plane pattern storage, `2 * words` words per node in node-id
    /// order, covering at least every node before the *pattern bound*:
    /// the end of the last group the masked sweep reads (the group holding
    /// node `leaf_suffix - 1`), never before the end of the root group.
    /// The groups past it hold only leaves, are swept over their rows,
    /// and may be left out: `ha-core`'s `FlatHaIndex` keeps no leaf
    /// pattern there. A file's planes cover every node
    /// ([`FlatStoreView::new`] checks `2 * words * node_count`), and
    /// [`store_bytes`](crate::store_bytes) regenerates the patterns left
    /// out.
    pub planes: &'a [u64],
    /// Per node: leaf-array index or [`NONE`], length `node_count`.
    pub leaf_slot: &'a [u32],
    /// Leaf codes as `words`-word rows, length `leaf_count * words`.
    pub leaf_code_words: &'a [u64],
    /// CSR offsets into `leaf_ids`, length `leaf_count + 1`.
    pub leaf_ids_start: &'a [u32],
    /// Tuple ids of every leaf, concatenated.
    pub leaf_ids: &'a [u64],
    /// Leaf slots ordered by code row, lexicographically ascending —
    /// the zero-copy point-lookup directory, length `leaf_count`.
    pub leaf_sorted: &'a [u32],
    /// Per-group storage layout flags: entry 0 is the root group, entry
    /// `1 + p` is node `p`'s child group; `0` = SoA word-planes, `1` =
    /// AoS rows. Either empty (hand-built parts, read as all-SoA) or
    /// exactly `node_count + 1` long, as every file holds it.
    pub group_layout: &'a [u8],
    /// First node id of the all-leaf suffix: every node from here on is
    /// a leaf (`node_count` when the last node is internal). Derived from
    /// `leaf_slot` by [`leaf_suffix_start`] and never stored in a file.
    pub leaf_suffix: usize,
}

/// Word offsets of the bits and the mask word `i` of sibling `s` in a
/// `g`-wide group of `words`-word patterns laid out as `layout`, from the
/// group's first word.
pub(crate) fn pattern_word_at(
    layout: GroupLayout,
    words: usize,
    g: usize,
    s: usize,
    i: usize,
) -> (usize, usize) {
    match layout {
        GroupLayout::Soa => (2 * i * g + s, (2 * i + 1) * g + s),
        GroupLayout::Aos => (2 * words * s + i, 2 * words * s + words + i),
    }
}

/// Where the all-leaf suffix of `leaf_slot` starts: the id after the
/// last internal node ([`FlatParts::leaf_suffix`]).
pub fn leaf_suffix_start(leaf_slot: &[u32]) -> usize {
    leaf_slot
        .iter()
        .rposition(|&s| s == NONE)
        .map_or(0, |v| v + 1)
}

/// Reusable traversal buffers: two swapped level-synchronous frontiers
/// plus the per-group distance accumulators handed to the kernels.
#[derive(Default)]
struct Scratch {
    frontier: Vec<(u32, u32)>,
    next: Vec<(u32, u32)>,
    dist: Vec<u32>,
}

thread_local! {
    /// Each thread's long-lived [`Scratch`]: every search borrows it for
    /// the duration of one call instead of allocating fresh frontier
    /// `Vec`s, so steady-state serving allocates nothing per query.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Checks the H-Search path invariant on structurally valid `parts`:
/// along every root-to-leaf path the pattern masks are disjoint, they
/// cover exactly the code's `code_len` bits, and the masked pattern bits
/// spell the leaf's stored row. The leaf row sweep answers from the rows
/// where the masked sweep would answer from the patterns; this is what
/// makes the two agree on an untrusted file.
///
/// One pass in node-id order, which reads `planes` and the leaf rows
/// front to back: the groups go by in BFS order (the roots, then each
/// internal node's children), and each internal node's accumulated
/// `mask‖bits` is kept, in the same order, until its own group comes up.
/// That order reaches every node only if no leaf owns a child group, so
/// one that does is rejected too.
fn check_paths(parts: &FlatParts<'_>) -> Result<(), StoreError> {
    let w = parts.words;
    let rc = parts.root_count;
    let n = parts.leaf_slot.len();
    let full = BinaryCode::ones(parts.code_len);
    // The k-th internal node's accumulated mask then bits, at
    // `acc[2 * w * k ..][.. 2 * w]`.
    let mut acc = vec![0u64; 2 * w * (n - parts.leaf_sorted.len())];
    let (mut stored, mut expanded) = (0usize, 0usize);
    let mut parent = vec![0u64; 2 * w];
    let mut here = vec![0u64; 2 * w];
    // Group 0 is the roots', group `1 + p` node `p`'s children.
    for gi in 0..=n {
        let (first, g) = if gi == 0 {
            (0, rc)
        } else {
            let p = gi - 1;
            let lo = parts.child_start[p] as usize;
            let g = parts.child_start[p + 1] as usize - lo;
            if parts.leaf_slot[p] != NONE {
                if g != 0 {
                    return Err(StoreError::Corrupt("leaf with children"));
                }
                continue;
            }
            parent.copy_from_slice(&acc[2 * w * expanded..2 * w * (expanded + 1)]);
            expanded += 1;
            (rc + lo, g)
        };
        let base = 2 * w * first;
        let layout = GroupLayout::from_flag(parts.group_layout.get(gi).copied().unwrap_or(0));
        for s in 0..g {
            for i in 0..w {
                let (bits_at, mask_at) = pattern_word_at(layout, w, g, s, i);
                let (bits, mask) = (parts.planes[base + bits_at], parts.planes[base + mask_at]);
                if parent[i] & mask != 0 {
                    return Err(StoreError::Corrupt("path masks overlap"));
                }
                here[i] = parent[i] | mask;
                here[w + i] = parent[w + i] | (bits & mask);
            }
            let slot = parts.leaf_slot[first + s];
            if slot == NONE {
                acc[2 * w * stored..2 * w * (stored + 1)].copy_from_slice(&here);
                stored += 1;
                continue;
            }
            let row = &parts.leaf_code_words[slot as usize * w..(slot as usize + 1) * w];
            for i in 0..w {
                if here[i] != full.words()[i] {
                    return Err(StoreError::Corrupt("leaf path does not cover the code"));
                }
                if here[w + i] != row[i] {
                    return Err(StoreError::Corrupt("leaf path does not spell its row"));
                }
            }
        }
    }
    Ok(())
}

/// Zero-copy search view over [`FlatParts`] (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct FlatStoreView<'a> {
    parts: FlatParts<'a>,
    kernel: Kernel,
}

impl<'a> FlatStoreView<'a> {
    /// Wraps `parts` after validating every structural invariant the
    /// traversal relies on. On success the view is total: no input
    /// query can make any search method panic or read out of bounds.
    pub fn new(parts: FlatParts<'a>) -> Result<FlatStoreView<'a>, StoreError> {
        let n = parts.leaf_slot.len();
        let rc = parts.root_count;
        let words = parts.words;
        if parts.code_len == 0 || parts.code_len > ha_bitcode::MAX_BITS {
            return Err(StoreError::Corrupt("code length out of range"));
        }
        if words != parts.code_len.div_ceil(64) {
            return Err(StoreError::Corrupt("word count does not match code length"));
        }
        if rc > n {
            return Err(StoreError::Corrupt("more roots than nodes"));
        }
        if n >= u32::MAX as usize {
            return Err(StoreError::Corrupt("count exceeds u32 index space"));
        }
        let m = n - rc;
        if parts.children.len() != m {
            return Err(StoreError::Corrupt("child array length mismatch"));
        }
        if parts.child_start.len() != n + 1 {
            return Err(StoreError::Corrupt("child offset length mismatch"));
        }
        if parts.child_start.first() != Some(&0) || parts.child_start.last() != Some(&(m as u32)) {
            return Err(StoreError::Corrupt("child offsets do not span child array"));
        }
        if parts.child_start.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt("child offsets not monotone"));
        }
        // The consecutive-children invariant: BFS renumbering appends
        // each processed node's children in order, so the flat child
        // array is exactly `root_count, root_count + 1, …`. This single
        // O(n) check is what makes termination provable (module docs).
        if parts
            .children
            .iter()
            .enumerate()
            .any(|(i, &c)| c as usize != rc + i)
        {
            return Err(StoreError::Corrupt("child ids not consecutive"));
        }
        let plane_words = 2usize
            .checked_mul(words)
            .and_then(|x| x.checked_mul(n))
            .ok_or(StoreError::Corrupt("plane size overflow"))?;
        if parts.planes.len() != plane_words {
            return Err(StoreError::Corrupt("plane array length mismatch"));
        }

        let leaves = parts.leaf_sorted.len();
        if leaves >= u32::MAX as usize {
            return Err(StoreError::Corrupt("count exceeds u32 index space"));
        }
        if parts.leaf_code_words.len()
            != leaves
                .checked_mul(words)
                .ok_or(StoreError::Corrupt("leaf code size overflow"))?
        {
            return Err(StoreError::Corrupt("leaf code array length mismatch"));
        }
        if parts.leaf_ids_start.len() != leaves + 1 {
            return Err(StoreError::Corrupt("leaf id offset length mismatch"));
        }
        if parts.leaf_ids_start.first() != Some(&0)
            || parts.leaf_ids_start.last().map(|&x| x as usize) != Some(parts.leaf_ids.len())
        {
            return Err(StoreError::Corrupt("leaf id offsets do not span id array"));
        }
        if parts.leaf_ids_start.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt("leaf id offsets not monotone"));
        }
        // In leafful snapshots the tuple count is exactly the id count;
        // only leafless snapshots (empty id array, Option B of the
        // MapReduce join) may carry a larger count.
        if !parts.leaf_ids.is_empty() && parts.tuple_count != parts.leaf_ids.len() {
            return Err(StoreError::Corrupt("tuple count disagrees with id array"));
        }
        // Leaf slots are assigned in BFS order: the k-th leaf node gets
        // slot k. Checking that sequence also proves every slot index
        // is in bounds and used exactly once.
        let mut next_slot = 0u32;
        for &s in parts.leaf_slot {
            if s == NONE {
                continue;
            }
            if s != next_slot {
                return Err(StoreError::Corrupt("leaf slots not sequential"));
            }
            next_slot += 1;
        }
        if next_slot as usize != leaves {
            return Err(StoreError::Corrupt("leaf slot count mismatch"));
        }
        // Stored codes must not smuggle bits past `code_len` — the tail
        // of the last word is zero in every code `BinaryCode` produces,
        // and distance arithmetic and point lookups both rely on it.
        let tail = parts.code_len % 64;
        if tail != 0 && words > 0 {
            let junk = u64::MAX >> tail;
            for row in parts.leaf_code_words.chunks_exact(words) {
                if row[words - 1] & junk != 0 {
                    return Err(StoreError::Corrupt("leaf code has bits past code length"));
                }
            }
        }
        // `leaf_sorted` must list each slot once, rows strictly
        // ascending — strictness both proves it is a permutation and
        // licenses binary search (codes are distinct by construction).
        for w in parts.leaf_sorted.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if a >= leaves || b >= leaves {
                return Err(StoreError::Corrupt("sorted leaf index out of range"));
            }
            let ra = &parts.leaf_code_words[a * words..(a + 1) * words];
            let rb = &parts.leaf_code_words[b * words..(b + 1) * words];
            if ra >= rb {
                return Err(StoreError::Corrupt("sorted leaf directory out of order"));
            }
        }
        if leaves == 1 && parts.leaf_sorted[0] != 0 {
            return Err(StoreError::Corrupt("sorted leaf index out of range"));
        }
        // Layout flags: absent entirely (all-SoA) or one byte
        // per group with only the two defined values — an undefined
        // flag would silently scramble every distance over its group.
        if !parts.group_layout.is_empty() {
            if parts.group_layout.len() != n + 1 {
                return Err(StoreError::Corrupt("group layout length mismatch"));
            }
            if parts.group_layout.iter().any(|&f| f > 1) {
                return Err(StoreError::Corrupt("undefined group layout flag"));
            }
        }
        if parts.leaf_suffix != leaf_suffix_start(parts.leaf_slot) {
            return Err(StoreError::Corrupt(
                "leaf suffix bound disagrees with leaf slots",
            ));
        }
        check_paths(&parts)?;
        Ok(FlatStoreView::from_parts_unchecked(parts))
    }

    /// Wraps `parts` without validation — for arrays correct by
    /// construction (a freshly compiled snapshot, or sections that
    /// already passed [`FlatStoreView::new`]). Still memory-safe for
    /// arbitrary inputs; see the module docs.
    pub fn from_parts_unchecked(parts: FlatParts<'a>) -> FlatStoreView<'a> {
        FlatStoreView { parts, kernel: Kernel::detect() }
    }

    /// Same view, running its group sweeps on `kernel` instead of the
    /// runtime-detected [`Kernel::detect`]. Every kernel computes
    /// identical distances (pinned by the equivalence suite); this only
    /// selects the instruction pattern — scalar for tracing/debugging,
    /// the detected vector kernel for throughput.
    pub fn with_kernel(mut self, kernel: Kernel) -> FlatStoreView<'a> {
        self.kernel = kernel;
        self
    }

    /// The kernel this view dispatches group sweeps to.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The underlying borrowed arrays.
    pub fn parts(&self) -> &FlatParts<'a> {
        &self.parts
    }

    /// Number of indexed tuples (with multiplicity).
    pub fn len(&self) -> usize {
        self.parts.tuple_count
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.parts.tuple_count == 0
    }

    /// Width of the indexed codes in bits.
    pub fn code_len(&self) -> usize {
        self.parts.code_len
    }

    /// Total nodes of the frozen forest.
    pub fn node_count(&self) -> usize {
        self.parts.leaf_slot.len()
    }

    /// Distinct leaf codes.
    pub fn leaf_count(&self) -> usize {
        self.parts.leaf_sorted.len()
    }

    /// Arena mutation epoch the snapshot froze at.
    pub fn epoch(&self) -> u64 {
        self.parts.epoch
    }

    /// Leaf slot `slot`'s code as a word row.
    #[inline]
    fn row(&self, slot: usize) -> &'a [u64] {
        let w = self.parts.words;
        &self.parts.leaf_code_words[slot * w..(slot + 1) * w]
    }

    /// Tuple ids of leaf slot `slot`.
    #[inline]
    fn ids_of(&self, slot: u32) -> &'a [u64] {
        let lo = self.parts.leaf_ids_start[slot as usize] as usize;
        let hi = self.parts.leaf_ids_start[slot as usize + 1] as usize;
        &self.parts.leaf_ids[lo..hi]
    }

    /// Storage layout of group `gi` (0 = root group, `1 + p` = node
    /// `p`'s child group). An absent flag array (hand-built parts) means
    /// all-SoA.
    #[inline]
    fn layout_of(&self, gi: usize) -> GroupLayout {
        GroupLayout::from_flag(self.parts.group_layout.get(gi).copied().unwrap_or(0))
    }

    /// Core level-synchronous traversal: the arena's H-Search BFS over
    /// the flat arrays, visiting siblings in the same order, so results
    /// are byte-for-byte those of the arena (and of every other view of
    /// the same snapshot). Calls `emit(leaf_slot, exact_distance)` for
    /// each qualifying leaf.
    fn run(&self, query: &BinaryCode, h: u32, mut emit: impl FnMut(u32, u32)) {
        assert_eq!(query.len(), self.parts.code_len, "query length mismatch");
        let rc = self.parts.root_count;
        if rc == 0 {
            return;
        }
        let qw = query.words();
        let w = self.parts.words;
        // Every internal node precedes the all-leaf suffix, so a suffix
        // node's leaf slot is its id minus the internal-node count.
        let internal = self.node_count() - self.leaf_count();
        // Take/replace rather than `borrow_mut`, so a re-entrant call (an
        // `emit` that searches again) sees a fresh scratch, not a panic.
        let mut scratch = SCRATCH.with(RefCell::take);
        let Scratch { frontier, next, dist } = &mut scratch;
        frontier.clear();

        // Top level: one kernel call over the root group.
        dist.clear();
        dist.resize(rc, 0);
        masked_distance_group(
            self.kernel,
            self.layout_of(0),
            qw,
            &self.parts.planes[..2 * w * rc],
            rc,
            h,
            dist,
        );
        for (v, &d) in dist.iter().enumerate() {
            if d <= h {
                let slot = self.parts.leaf_slot[v];
                if slot != NONE {
                    emit(slot, d);
                } else {
                    frontier.push((v as u32, d));
                }
            }
        }

        // Descend level by level. An all-leaf child group is one row
        // sweep over its leaves' codes; any other survivor scans its
        // child group with one kernel call seeded at its accumulator.
        while !frontier.is_empty() {
            next.clear();
            for &(p, acc) in frontier.iter() {
                let lo = self.parts.child_start[p as usize] as usize;
                let g = self.parts.child_start[p as usize + 1] as usize - lo;
                if rc + lo >= self.parts.leaf_suffix {
                    let first = rc + lo - internal;
                    dist.clear();
                    dist.resize(g, 0);
                    hamming_distance_rows(
                        self.kernel,
                        qw,
                        &self.parts.leaf_code_words[first * w..(first + g) * w],
                        h,
                        dist,
                    );
                    for (s, &d) in dist.iter().enumerate() {
                        if d <= h {
                            emit((first + s) as u32, d);
                        }
                    }
                    continue;
                }
                // A group before the suffix lies inside the pattern bound.
                let base = 2 * w * (rc + lo);
                dist.clear();
                dist.resize(g, acc);
                masked_distance_group(
                    self.kernel,
                    self.layout_of(p as usize + 1),
                    qw,
                    &self.parts.planes[base..base + 2 * w * g],
                    g,
                    h,
                    dist,
                );
                for (s, &d) in dist.iter().enumerate() {
                    if d <= h {
                        let v = self.parts.children[lo + s];
                        let slot = self.parts.leaf_slot[v as usize];
                        if slot != NONE {
                            emit(slot, d);
                        } else {
                            next.push((v, d));
                        }
                    }
                }
            }
            std::mem::swap(frontier, next);
        }
        SCRATCH.with(|cell| cell.replace(scratch));
    }

    /// H-Search over the mapped layout.
    pub fn search(&self, query: &BinaryCode, h: u32) -> Vec<u64> {
        let mut out = Vec::new();
        self.run(query, h, |slot, _| out.extend_from_slice(self.ids_of(slot)));
        out
    }

    /// H-Search returning `(id, exact distance)` pairs.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        self.run(query, h, |slot, d| {
            out.extend(self.ids_of(slot).iter().map(|&id| (id, d)));
        });
        out
    }

    /// H-Search returning distinct qualifying codes with exact
    /// distances (codes materialized from the mapped rows).
    pub fn search_codes(&self, query: &BinaryCode, h: u32) -> Vec<(BinaryCode, u32)> {
        let mut out = Vec::new();
        self.run(query, h, |slot, d| {
            out.push((BinaryCode::from_words(self.row(slot as usize), self.parts.code_len), d));
        });
        out
    }

    /// Exact point lookup: tuple ids stored under `code`, or an empty
    /// slice. Zero-copy — binary search over the sorted leaf directory,
    /// answer borrowed straight from the mapped id section.
    pub fn ids_for_code(&self, code: &BinaryCode) -> &'a [u64] {
        if code.len() != self.parts.code_len {
            return &[];
        }
        let qw = code.words();
        let found = self
            .parts
            .leaf_sorted
            .binary_search_by(|&slot| self.row(slot as usize).cmp(qw));
        match found {
            Ok(pos) => self.ids_of(self.parts.leaf_sorted[pos]),
            Err(_) => &[],
        }
    }

    /// Iterates every indexed `(code, id)` pair in leaf-slot order —
    /// the materialization source for rebuilds on top of a mapped
    /// snapshot.
    pub fn items(&self) -> impl Iterator<Item = (BinaryCode, u64)> + '_ {
        (0..self.leaf_count()).flat_map(move |slot| {
            let code = BinaryCode::from_words(self.row(slot), self.parts.code_len);
            self.ids_of(slot as u32)
                .iter()
                .map(move |&id| (code.clone(), id))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-built two-level snapshot: one root with two leaf
    /// children. Codes are 8-bit.
    struct Tiny {
        child_start: Vec<u32>,
        children: Vec<u32>,
        planes: Vec<u64>,
        leaf_slot: Vec<u32>,
        leaf_code_words: Vec<u64>,
        leaf_ids_start: Vec<u32>,
        leaf_ids: Vec<u64>,
        leaf_sorted: Vec<u32>,
        group_layout: Vec<u8>,
        leaf_suffix: usize,
    }

    /// One way to damage a [`Tiny`] snapshot.
    type Mutation = Box<dyn Fn(&mut Tiny)>;

    fn bc(bits: u64) -> BinaryCode {
        BinaryCode::from_u64(bits, 8)
    }

    impl Tiny {
        fn build() -> Tiny {
            // Root pattern: empty mask (matches everything, distance 0).
            // Children: full-mask patterns equal to the leaf codes.
            let a = bc(0b1010_0000);
            let b = bc(0b1111_0000);
            let full = BinaryCode::from_u64(0xFF, 8).words()[0];
            Tiny {
                child_start: vec![0, 2, 2, 2],
                children: vec![1, 2],
                // Word-plane order per group: bits then mask, one word.
                planes: vec![
                    0,
                    0, // root group: bits, mask
                    a.words()[0],
                    b.words()[0], // child bits plane
                    full,
                    full, // child mask plane
                ],
                leaf_slot: vec![NONE, 0, 1],
                leaf_code_words: vec![a.words()[0], b.words()[0]],
                leaf_ids_start: vec![0, 2, 3],
                leaf_ids: vec![10, 11, 20],
                leaf_sorted: vec![0, 1],
                group_layout: vec![0, 0, 0, 0],
                leaf_suffix: 1,
            }
        }

        /// Two levels below the root: the root's group holds the last
        /// internal node (id 1, prefix `1010`) and leaf 2 (`0000_1111`);
        /// node 1's group is leaves 3 (`1010_0000`) and 4 (`1010_0011`).
        /// The all-leaf suffix starts at id 2, one past the start of the
        /// root's group, so that group keeps the masked sweep and only
        /// node 1's group reads rows.
        fn deep() -> Tiny {
            let w = |b: u64| bc(b).words()[0];
            Tiny {
                child_start: vec![0, 2, 4, 4, 4, 4],
                children: vec![1, 2, 3, 4],
                planes: vec![
                    0,
                    0, // root: empty mask
                    w(0b1010_0000),
                    w(0b0000_1111),
                    w(0b1111_0000),
                    w(0b1111_1111), // node 0's group: bits 1, bits 2, mask 1, mask 2
                    w(0),
                    w(0b0000_0011),
                    w(0b0000_1111),
                    w(0b0000_1111), // node 1's group: bits 3, bits 4, mask 3, mask 4
                ],
                leaf_slot: vec![NONE, NONE, 0, 1, 2],
                leaf_code_words: vec![w(0b0000_1111), w(0b1010_0000), w(0b1010_0011)],
                leaf_ids_start: vec![0, 1, 2, 3],
                leaf_ids: vec![20, 30, 40],
                leaf_sorted: vec![0, 1, 2],
                group_layout: vec![0; 6],
                leaf_suffix: 2,
            }
        }

        /// Rewrites the root's child group (the only multi-word-free
        /// group here) into AoS row order and flips its flag.
        fn make_child_group_aos(&mut self) {
            // SoA child group at planes[2..6]: [bits a, bits b, mask, mask].
            // AoS with words = 1: [bits a, mask a, bits b, mask b].
            let (a, b, ma, mb) = (self.planes[2], self.planes[3], self.planes[4], self.planes[5]);
            self.planes[2] = a;
            self.planes[3] = ma;
            self.planes[4] = b;
            self.planes[5] = mb;
            self.group_layout[1] = 1;
        }

        fn parts(&self) -> FlatParts<'_> {
            FlatParts {
                code_len: 8,
                words: 1,
                root_count: 1,
                tuple_count: 3,
                epoch: 7,
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
    }

    #[test]
    fn tiny_snapshot_searches_and_looks_up() {
        let t = Tiny::build();
        let view = FlatStoreView::new(t.parts()).expect("valid parts");
        assert_eq!(view.len(), 3);
        assert_eq!(view.leaf_count(), 2);
        assert_eq!(view.search(&bc(0b1010_0000), 0), vec![10, 11]);
        let both = view.search(&bc(0b1010_0000), 2);
        assert_eq!(both, vec![10, 11, 20]);
        assert_eq!(view.ids_for_code(&bc(0b1111_0000)), &[20]);
        assert_eq!(view.ids_for_code(&bc(0b0000_0001)), &[] as &[u64]);
        assert_eq!(view.items().count(), 3);
    }

    #[test]
    fn validation_rejects_each_broken_invariant() {
        let cases: Vec<(&str, Mutation)> = vec![
            ("child ids not consecutive", Box::new(|t| t.children[0] = 2)),
            ("offsets not monotone", Box::new(|t| t.child_start[1] = 9)),
            ("leaf slot out of range", Box::new(|t| t.leaf_slot[1] = 5)),
            ("id offsets ragged", Box::new(|t| t.leaf_ids_start[2] = 99)),
            ("sorted dir out of order", Box::new(|t| t.leaf_sorted.swap(0, 1))),
            ("sorted index range", Box::new(|t| t.leaf_sorted[0] = 3)),
            ("layout length", Box::new(|t| {
                t.group_layout.pop();
            })),
            ("undefined layout flag", Box::new(|t| t.group_layout[0] = 2)),
            ("suffix bound too low", Box::new(|t| t.leaf_suffix = 0)),
            ("suffix bound too high", Box::new(|t| t.leaf_suffix = 2)),
        ];
        for (what, mutate) in cases {
            let mut t = Tiny::build();
            mutate(&mut t);
            assert!(
                FlatStoreView::new(t.parts()).is_err(),
                "{what} must be rejected"
            );
        }
    }

    /// The row sweep answers from a leaf's row and the masked sweep from
    /// its path's patterns, so a snapshot whose two disagree is corrupt.
    #[test]
    fn validation_rejects_leaf_paths_that_disagree_with_rows() {
        let top = 1u64 << 63; // bit 0 of the 8-bit codes
        let cases: Vec<(&str, Mutation)> = vec![
            // The root's empty mask claims bit 0, which both leaves own.
            ("path masks overlap", Box::new(move |t| t.planes[1] = top)),
            // Leaf `a`'s mask drops bit 0: its path covers 7 of 8 bits.
            (
                "leaf path does not cover the code",
                Box::new(move |t| t.planes[4] &= !top),
            ),
            // Leaf `a`'s pattern spells 0010_0000, its row 1010_0000.
            (
                "leaf path does not spell its row",
                Box::new(move |t| t.planes[2] ^= top),
            ),
            // Leaf `b`'s pattern lies the same way in an AoS group, laid
            // out bits a, mask a, bits b, mask b.
            (
                "leaf path does not spell its row",
                Box::new(move |t| {
                    t.make_child_group_aos();
                    t.planes[4] ^= top;
                }),
            ),
            // Leaf `a` owns leaf `b` as its child: a node no search
            // reaches, and the path check's node order would skip it.
            (
                "leaf with children",
                Box::new(|t| {
                    t.child_start = vec![0, 1, 2, 2];
                    t.planes = vec![0, 0, t.planes[2], t.planes[4], t.planes[3], t.planes[5]];
                }),
            ),
            // A mask bit past the 8-bit code length.
            (
                "leaf path does not cover the code",
                Box::new(|t| t.planes[5] |= 1),
            ),
        ];
        for (what, mutate) in cases {
            let mut t = Tiny::build();
            mutate(&mut t);
            assert_eq!(
                FlatStoreView::new(t.parts()).err(),
                Some(StoreError::Corrupt(what)),
                "{what}"
            );
        }
    }

    #[test]
    fn only_groups_past_the_suffix_bound_read_rows() {
        let t = Tiny::deep();
        let view = FlatStoreView::new(t.parts()).expect("valid parts");
        let q = bc(0b1010_0000);
        for k in Kernel::ALL {
            let view = view.with_kernel(k);
            assert_eq!(view.search(&q, 0), vec![30], "kernel {}", k.name());
            assert_eq!(view.search(&q, 2), vec![30, 40], "kernel {}", k.name());
            assert_eq!(
                view.search_with_distances(&q, 8),
                vec![(20, 6), (30, 0), (40, 2)],
                "kernel {}",
                k.name()
            );
        }
    }

    #[test]
    fn validation_rejects_trailing_code_bits() {
        let mut t = Tiny::build();
        t.leaf_code_words[0] |= 1; // bit 63 of word 0 is past an 8-bit code
        let err = FlatStoreView::new(t.parts()).expect_err("must reject");
        assert_eq!(
            err,
            StoreError::Corrupt("leaf code has bits past code length")
        );
    }

    #[test]
    fn empty_snapshot_is_valid_and_inert() {
        let child_start = [0u32];
        let leaf_ids_start = [0u32];
        let parts = FlatParts {
            code_len: 16,
            words: 1,
            root_count: 0,
            tuple_count: 0,
            epoch: 0,
            child_start: &child_start,
            children: &[],
            planes: &[],
            leaf_slot: &[],
            leaf_code_words: &[],
            leaf_ids_start: &leaf_ids_start,
            leaf_ids: &[],
            leaf_sorted: &[],
            group_layout: &[],
            leaf_suffix: 0,
        };
        let view = FlatStoreView::new(parts).expect("empty is valid");
        assert!(view.is_empty());
        assert!(view.search(&BinaryCode::zero(16), 16).is_empty());
        assert!(view.items().next().is_none());
    }

    #[test]
    fn aos_group_answers_identically_under_every_kernel() {
        let soa = Tiny::build();
        let soa_view = FlatStoreView::new(soa.parts()).expect("valid");
        let mut aos = Tiny::build();
        aos.make_child_group_aos();
        let aos_view = FlatStoreView::new(aos.parts()).expect("AoS flag is valid");
        for q in [bc(0b1010_0000), bc(0b1111_0000), bc(0b0000_0001)] {
            for h in 0..=8 {
                let want = soa_view.search(&q, h);
                for k in Kernel::ALL {
                    assert_eq!(
                        aos_view.with_kernel(k).search(&q, h),
                        want,
                        "kernel {} must match SoA baseline at h={h}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn with_kernel_overrides_the_detected_choice() {
        let t = Tiny::build();
        let view = FlatStoreView::new(t.parts()).expect("valid");
        assert_eq!(view.kernel(), Kernel::detect());
        assert_eq!(view.with_kernel(Kernel::Scalar).kernel(), Kernel::Scalar);
    }
}
