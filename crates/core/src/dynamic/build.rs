//! H-Build (Algorithm 1): bulk-loading the Dynamic HA-Index.
//!
//! 1. Group tuples by distinct code and sort the codes in **Gray order**
//!    (non-decreasing Gray rank) so neighbours share long FLSSeqs.
//! 2. Slide a `w`-slot window over the current level; each window's members
//!    either share a non-vacuous maximal FLSSeq — which becomes their
//!    parent, the members keeping only residual bits — or they are linked
//!    to the top level of the index directly (Algorithm 1 line 16).
//! 3. Parents with identical patterns are consolidated into one node with
//!    summed frequency (lines 6–11).
//! 4. Repeat on the freshly created parents until the requested depth is
//!    reached or no further sharing exists; whatever remains forms the top
//!    level.

use std::collections::HashMap;

use ha_bitcode::gray::{gray_rank, gray_rank_u64};
use ha_bitcode::{BinaryCode, MaskedCode};

use super::{DhaConfig, DynamicHaIndex, Node, NodeId};
use crate::memory::seed_bulk;
use crate::TupleId;

/// H-Build (`build` / `build_with`).
///
/// Step 1 sorts instead of hashing: [`gray_sorted`] orders one
/// `(key, input position)` pair per tuple, a run of equal keys is one
/// distinct code, and [`append_leaves`] appends each run's leaf straight
/// into the arena. The levels then run as the paper states them.
pub(super) fn h_build(
    items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    config: DhaConfig,
) -> DynamicHaIndex {
    let items: Vec<(BinaryCode, TupleId)> = items.into_iter().collect();
    let code_len = items.first().map_or(0, |(c, _)| c.len());
    let mut idx = DynamicHaIndex::empty(code_len, config);
    idx.len = items.len();
    if items.is_empty() {
        return idx;
    }
    let sorted = {
        let _span = ha_obs::span("core.hbuild.rank_sort");
        gray_sorted(&items, code_len)
    };
    let leaves = {
        let _span = ha_obs::span("core.hbuild.leaves");
        append_leaves(&mut idx, items, sorted)
    };
    // Extraction levels (lines 3–24).
    let _span = ha_obs::span("core.hbuild.levels");
    extract_levels(&mut idx, leaves);
    idx
}

/// Algorithm 1 line 1 as a sort: one `(key, input position)` pair per
/// tuple, in order. Keys rise in Gray order and are equal exactly for
/// equal codes (the rank is a bijection); positions rise within a key, so
/// each code's ids keep their input order.
///
/// A code of at most 64 bits is keyed by its Gray rank as a `u64`: the
/// pairs are distinct, so `sort_unstable` yields exactly the
/// `(rank, position)` order. A wider rank is a [`BinaryCode`]; input
/// positions are sorted by `(rank, position)` and the key is the ordinal
/// of the rank's run.
/// (An LSD radix sort of the `u64` pairs measured no faster than
/// `sort_unstable`: 74–129 ms against 58–100 ms at 10⁶ pairs.)
fn gray_sorted(items: &[(BinaryCode, TupleId)], code_len: usize) -> Vec<(u64, u32)> {
    let check = |code: &BinaryCode| assert_eq!(code.len(), code_len, "mixed code lengths");
    if code_len <= 64 {
        let mut keyed: Vec<(u64, u32)> = items
            .iter()
            .zip(0u32..)
            .map(|((code, _), i)| {
                check(code);
                (gray_rank_u64(code), i)
            })
            .collect();
        keyed.sort_unstable();
        return keyed;
    }
    let ranks: Vec<BinaryCode> = items
        .iter()
        .map(|(code, _)| {
            check(code);
            gray_rank(code)
        })
        .collect();
    let mut order: Vec<u32> = (0..items.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| ranks[a as usize].cmp(&ranks[b as usize]).then(a.cmp(&b)));
    let mut run = 0u64;
    let mut prev = &ranks[order[0] as usize];
    order
        .into_iter()
        .map(|i| {
            let rank = &ranks[i as usize];
            if rank != prev {
                run += 1;
                prev = rank;
            }
            (run, i)
        })
        .collect()
}

/// The leaf level (Algorithm 1 line 2), appended to the still-empty arena
/// in Gray order: per run of equal keys in `sorted`, one leaf holding the
/// full pattern, the code, the run length as its frequency and — when the
/// config keeps them — the run's ids, collected once at exact length. The
/// leaf hash table is filled in its own pass once the arena is laid out:
/// interleaving the two measured 2× slower at 10⁶ rows. Consumes the input
/// so it is freed before the levels run; returns the leaf level.
fn append_leaves(
    idx: &mut DynamicHaIndex,
    items: Vec<(BinaryCode, TupleId)>,
    sorted: Vec<(u64, u32)>,
) -> Vec<NodeId> {
    let runs = || sorted.chunk_by(|a, b| a.0 == b.0);
    let distinct = runs().count();
    let keep_ids = idx.config.keep_leaf_ids;
    seed_bulk(&mut idx.nodes, distinct);
    for run in runs() {
        let code = &items[run[0].1 as usize].0;
        let ids = if keep_ids {
            run.iter().map(|&(_, i)| items[i as usize].1).collect()
        } else {
            Vec::new()
        };
        let leaf = Node::leaf(MaskedCode::full(code.clone()), code.clone(), ids, run.len() as u32);
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

/// What one window of an extraction level resolved to. Planning a window
/// only *reads* the arena; every order-sensitive effect lives in
/// [`apply_level`].
enum WindowPlan {
    /// A lone trailing node just rides up to the next level.
    Ride,
    /// No shared FLSSeq: members link to the top level (line 16).
    TopLevel,
    /// The window shares `common`; members keep only their residual bits
    /// (line 5's child update).
    Extract {
        common: MaskedCode,
        residuals: Vec<MaskedCode>,
        frequency: u32,
    },
}

/// Analyses one window: the maximal shared FLSSeq and, when it is
/// non-vacuous, the members' residual patterns and summed frequency.
fn plan_window(nodes: &[Node], members: &[NodeId]) -> WindowPlan {
    if members.len() == 1 {
        return WindowPlan::Ride;
    }
    let common = MaskedCode::common_of(members.iter().map(|&n| &nodes[n as usize].pattern))
        .expect("non-empty window");
    if common.is_vacuous() {
        return WindowPlan::TopLevel;
    }
    let residuals = members
        .iter()
        .map(|&n| nodes[n as usize].pattern.subtract(common.mask()))
        .collect();
    let frequency = members.iter().map(|&n| nodes[n as usize].frequency).sum();
    WindowPlan::Extract {
        common,
        residuals,
        frequency,
    }
}

/// Runs the extraction levels over the leaf level `current`: each level's
/// windows are planned, then applied in window order.
fn extract_levels(idx: &mut DynamicHaIndex, mut current: Vec<NodeId>) {
    let max_depth = idx.config.max_depth.max(1);
    for _depth in 0..max_depth {
        if current.len() <= 1 {
            break;
        }
        let plans: Vec<WindowPlan> = current
            .chunks(idx.config.window.max(2))
            .map(|members| plan_window(&idx.nodes, members))
            .collect();
        let next = apply_level(idx, &current, plans);
        if next.is_empty() {
            current = next;
            break;
        }
        current = next;
    }
    idx.roots.extend(current);
}

/// Applies one level's window plans: mutates member patterns to their
/// residuals, consolidates pattern-equal parents (lines 6–11) and
/// allocates new parents in window order.
fn apply_level(
    idx: &mut DynamicHaIndex,
    current: &[NodeId],
    plans: Vec<WindowPlan>,
) -> Vec<NodeId> {
    let window = idx.config.window.max(2);
    let mut next: Vec<NodeId> = Vec::new();
    // Consolidation map for this level (lines 6–11).
    let mut intern: HashMap<MaskedCode, NodeId> = HashMap::with_capacity(plans.len());
    for (chunk, plan) in current.chunks(window).zip(plans) {
        match plan {
            WindowPlan::Ride => next.push(chunk[0]),
            WindowPlan::TopLevel => idx.roots.extend_from_slice(chunk),
            WindowPlan::Extract {
                common,
                residuals,
                frequency,
            } => {
                for (&member, residual) in chunk.iter().zip(residuals) {
                    idx.nodes[member as usize].pattern = residual;
                }
                match intern.entry(common) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let pid = *e.get();
                        let parent = &mut idx.nodes[pid as usize];
                        parent.children.extend_from_slice(chunk);
                        parent.frequency += frequency;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let mut parent = Node::internal(e.key().clone());
                        parent.children.extend_from_slice(chunk);
                        parent.frequency = frequency;
                        let pid = alloc_raw(&mut idx.nodes, parent);
                        e.insert(pid);
                        next.push(pid);
                    }
                }
            }
        }
    }
    next
}

pub(super) fn alloc_raw(nodes: &mut Vec<Node>, node: Node) -> NodeId {
    let id = nodes.len() as NodeId;
    nodes.push(node);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{clustered_dataset, paper_table_s, random_dataset};
    use crate::HammingIndex;

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

    #[test]
    fn leafless_runs_carry_their_length_as_frequency() {
        // Both rank paths (a `u64` key at 16 bits, a `BinaryCode` run
        // ordinal at 65), heavily duplicated.
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
}
